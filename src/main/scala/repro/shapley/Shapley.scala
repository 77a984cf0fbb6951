package repro.shapley

/** Shapley-value attribution of attributes to a model's output
  * (Section V): [[linearExact]], the closed form for the linear surrogate
  * `M_R` under the feature-independence assumption,
  * `φ_a(t) = Σ_{j ∈ onehot(a)} w_j (x_j − E[x_j])`. It satisfies the
  * efficiency axiom `Σ_a φ_a(t) = f(t) − E[f]` exactly; the tests assert
  * this, and cross-check it against a permutation-sampling oracle.
  */
object Shapley {

  /** Exact per-attribute Shapley values of `model` at encoded tuple `t`. */
  def linearExact(model: RidgeRegression.Model, t: Array[Int]): Array[Double] = {
    val m = model.attrCols.length
    val out = new Array[Double](m)
    var a = 0
    while (a < m) {
      val off = model.offsets(a)
      var phi = model.weights(off + t(a))
      var v = 0
      while (v < model.domainSizes(a)) {
        phi -= model.weights(off + v) * model.featureMeans(off + v)
        v += 1
      }
      out(a) = phi
      a += 1
    }
    out
  }
}
