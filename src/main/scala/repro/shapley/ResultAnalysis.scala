package repro.shapley

import repro.core.{DatasetIndex, Pattern}
import repro.data.{BiasDataGen, Encoding}

/** End-to-end result analysis (Section V): given a group detected as
  * having biased representation in the top-k,
  *
  *  1. train the surrogate regression model `M_R` on `(t, rank(t))`;
  *  2. compute per-tuple Shapley values of every tuple in the group and
  *     aggregate them per attribute, `s_i = Σ_t s_i^t / s_D(p)`;
  *  3. compare the value distribution of the highest-Shapley attribute
  *     between the group and the top-k tuples (Figures 10d–f).
  *
  * The group's tuples and the top-k prefix are read from the
  * [[DatasetIndex]] the detection ran on, whose dictionaries give the
  * pattern's value codes their meaning. Only the ridge fit runs on Spark.
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

  /** Explain the biased representation of `pattern` in the top-k of
    * `ranked`, where `index` is the index of `ranked` that the detection
    * ran on. Shapley values use the exact closed form for the linear
    * surrogate (the Monte-Carlo engine is validated against it in tests).
    *
    * @throws IllegalArgumentException if `index` covers other attributes
    *         or dictionaries than `ranked`, `pattern` has another width,
    *         no tuple matches `pattern`, or `k` is outside [1, |D|]
    */
  def explain(ranked: BiasDataGen.RankedDataset, index: DatasetIndex, pattern: Pattern, k: Int): Explanation = {
    val attrs = ranked.attrCols
    require(index.attrNames == attrs,
      s"the index covers attributes ${index.attrNames.mkString(",")}, the dataset ${attrs.mkString(",")}")
    require(pattern.width == attrs.length, "pattern width must match the schema")
    require(k >= 1 && k <= index.size, s"k must be in [1, ${index.size}]: $k")
    val group = index.rows.filter(pattern.matches)
    require(group.nonEmpty, s"no tuple matches the group ${index.render(pattern)}")

    val (enc, domainSizes, dicts) = Encoding.encode(ranked.df, attrs, ranked.rankCol)
    require(dicts == index.domains, "the index's dictionaries differ from the dataset's")
    val model = RidgeRegression.fit(enc, attrs, domainSizes, ranked.rankCol)

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
