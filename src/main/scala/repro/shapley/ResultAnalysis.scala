package repro.shapley

import repro.core.{DatasetIndex, Pattern}

/** End-to-end result analysis (Section V): given a group detected as
  * having biased representation in the top-k,
  *
  *  1. train the surrogate regression model `M_R` on `(t, rank(t))`;
  *  2. compute per-tuple Shapley values of every tuple in the group and
  *     aggregate them per attribute, `s_i = Σ_t s_i^t / s_D(p)`;
  *  3. compare the value distribution of the highest-Shapley attribute
  *     between the group and the top-k tuples (Figures 10d–f).
  *
  * Everything is read from the [[DatasetIndex]] the detection ran on: its
  * rows in rank order are `M_R`'s training set, the group and the top-k
  * prefix, and its dictionaries give the pattern's value codes their
  * meaning.
  */
object ResultAnalysis {

  /** Analysis output for one detected group. */
  final case class Explanation(
      pattern: Pattern,
      rendered: String,
      /** (attribute, aggregated Shapley), sorted by |value| descending. */
      aggShapley: Seq[(String, Double)],
      /** Attribute with the largest |aggregated Shapley|. */
      topAttr: String,
      /** (value label, proportion) of `topAttr` within the group. */
      groupDist: Seq[(String, Double)],
      /** (value label, proportion) of `topAttr` within the top-k. */
      topkDist: Seq[(String, Double)],
  )

  /** Explain the biased representation of `pattern` in the top-k of the
    * ranking `index` holds. Shapley values use the exact closed form for
    * the linear surrogate (the Monte-Carlo engine is validated against it
    * in tests).
    *
    * @throws IllegalArgumentException if `pattern` has another width or a
    *         value outside its attribute's domain, no tuple matches
    *         `pattern`, or `k` is outside [1, |D|]
    */
  def explain(index: DatasetIndex, pattern: Pattern, k: Int): Explanation = {
    val attrs = index.attrNames
    require(pattern.width == attrs.length, "pattern width must match the schema")
    for (a <- pattern.attrs)
      require(pattern.vals(a) >= 0 && pattern.vals(a) < index.domainSizes(a),
        s"pattern value ${pattern.vals(a)} of ${attrs(a)} is outside [0, ${index.domainSizes(a)})")
    require(k >= 1 && k <= index.size, s"k must be in [1, ${index.size}]: $k")
    val group = index.rows.filter(pattern.matches)
    require(group.nonEmpty, s"no tuple matches the group ${index.render(pattern)}")

    // M_R is trained on D_R = {(t, R(D)[t])}: rows(i) has rank i + 1.
    val ranks = Array.tabulate(index.size)(i => (i + 1).toDouble)
    val model = RidgeRegression.fit(index.rows, ranks, attrs, index.domainSizes)

    // s_i = Σ_{t ⊨ p} s_i^t / s_D(p)
    val phis = group.map(Shapley.linearExact(model, _))
    val agg = attrs.indices
      .map(i => attrs(i) -> phis.map(_(i)).sum / group.length)
      .sortBy { case (_, v) => -math.abs(v) }

    val topAttr = agg.head._1
    val topIdx = attrs.indexOf(topAttr)

    def distribution(rows: Array[Array[Int]]): Seq[(String, Double)] = {
      val counts = new Array[Int](index.domainSizes(topIdx))
      for (r <- rows) counts(r(topIdx)) += 1
      index.domains(topIdx).zip(counts).map { case (v, c) => v -> c.toDouble / rows.length }
    }

    Explanation(
      pattern = pattern,
      rendered = index.render(pattern),
      aggShapley = agg,
      topAttr = topAttr,
      groupDist = distribution(group),
      topkDist = distribution(index.rows.take(k)),
    )
  }
}
