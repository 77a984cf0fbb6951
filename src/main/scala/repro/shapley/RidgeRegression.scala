package repro.shapley

/** Ridge regression over one-hot-encoded categorical attributes — the
  * paper's surrogate regression model `M_R` trained on
  * `D_R = {(t, R(D)[t])}` to approximate the black-box ranker
  * (Section V).
  *
  * The design-matrix moments `XᵀX` and `Xᵀy` are accumulated on the
  * driver in one pass over the encoded rows (a [[repro.core.DatasetIndex]]
  * holds them in rank order), and the regularized normal equations are
  * solved with a dense Cholesky factorization; the feature count is
  * Σ |Dom(A_i)| + 1 — tiny compared to the data. With integer labels,
  * such as ranks, every moment is an exact integer sum, so the model does
  * not depend on the order of the rows.
  */
object RidgeRegression {

  /** Fitted model.
    *
    * @param offsets      start of each attribute's one-hot block; the
    *                     last entry is the intercept index
    * @param weights      feature weights, intercept last
    * @param featureMeans mean of each one-hot feature over the training
    *                     data (the background distribution for Shapley)
    */
  final case class Model(
      attrCols: IndexedSeq[String],
      domainSizes: IndexedSeq[Int],
      offsets: IndexedSeq[Int],
      weights: Array[Double],
      featureMeans: Array[Double],
  )

  /** Fit on encoded tuples (`rows(i)(a)`: the value index of attribute
    * `a`) labelled by `labels(i)`.
    *
    * @throws IllegalArgumentException if there are no rows or the label
    *         count differs from the row count
    */
  def fit(
      rows: Array[Array[Int]],
      labels: Array[Double],
      attrCols: Seq[String],
      domainSizes: IndexedSeq[Int],
      lambda: Double = 1e-6,
  ): Model = {
    require(rows.nonEmpty, "empty training set")
    require(labels.length == rows.length, s"${labels.length} labels for ${rows.length} rows")
    val m = attrCols.length
    val offsets = domainSizes.scanLeft(0)(_ + _) // offsets(m) = #one-hot features
    val d = offsets(m) + 1                       // + intercept

    // A row's feature ids ascend (offsets grow, the intercept is last), so
    // its products all land in the upper triangle of XtX.
    val a = Array.ofDim[Double](d, d)
    val xty = new Array[Double](d)
    val feat = new Array[Int](m + 1)
    feat(m) = d - 1
    for ((r, y) <- rows.iterator.zip(labels.iterator)) {
      for (i <- 0 until m) feat(i) = offsets(i) + r(i)
      for (i <- 0 to m) {
        xty(feat(i)) += y
        for (j <- i to m) a(feat(i))(feat(j)) += 1.0
      }
    }
    // mirror into the lower triangle and add the ridge
    for (i <- 0 until d) {
      for (j <- i + 1 until d) a(j)(i) = a(i)(j)
      a(i)(i) += lambda
    }
    val w = Linalg.choleskySolve(a, xty)
    val means = Array.tabulate(offsets(m)) { j =>
      // feature count = diagonal of XtX (before ridge); recover it
      (a(j)(j) - lambda) / rows.length
    }
    Model(attrCols.toIndexedSeq, domainSizes, offsets.toIndexedSeq, w, means)
  }
}

/** Minimal dense linear algebra for the normal equations. */
object Linalg {

  /** Solve `A x = b` for symmetric positive-definite `A` (modifies a copy). */
  def choleskySolve(aIn: Array[Array[Double]], bIn: Array[Double]): Array[Double] = {
    val d = bIn.length
    val a = Array.tabulate(d, d)((i, j) => aIn(i)(j))
    val b = bIn.clone()
    // in-place Cholesky: a := L with A = L Lᵀ
    var i = 0
    while (i < d) {
      var j = 0
      while (j <= i) {
        var s = a(i)(j)
        var k = 0
        while (k < j) { s -= a(i)(k) * a(j)(k); k += 1 }
        if (i == j) {
          require(s > 0, s"matrix not positive definite at $i (s=$s)")
          a(i)(i) = math.sqrt(s)
        } else a(i)(j) = s / a(j)(j)
        j += 1
      }
      i += 1
    }
    // forward substitution L y = b
    i = 0
    while (i < d) {
      var s = b(i)
      var k = 0
      while (k < i) { s -= a(i)(k) * b(k); k += 1 }
      b(i) = s / a(i)(i)
      i += 1
    }
    // back substitution Lᵀ x = y
    i = d - 1
    while (i >= 0) {
      var s = b(i)
      var k = i + 1
      while (k < d) { s -= a(k)(i) * b(k); k += 1 }
      b(i) = s / a(i)(i)
      i -= 1
    }
    b
  }
}
