package repro.shapley

import org.apache.spark.sql.Row
import repro.SparkSpec
import repro.core.Pattern
import repro.data.{BiasDataGen, Encoding}

class ResultAnalysisSpec extends SparkSpec {

  // Use a moderate schema so the suite stays fast.
  private lazy val student = BiasDataGen.studentLike(spark, nAttrs = 12)
  private lazy val studentIx = Encoding.index(student.df, student.attrCols, student.rankCol)

  private lazy val medu = Pattern.of(student.attrCols.size, student.attrCols.indexOf("Medu") -> 0)

  private lazy val meduExpl = {
    // group {Medu = 0} (primary education) — the paper's p1 analogue.
    val meduIdx = student.attrCols.indexOf("Medu")
    val p = Pattern.of(student.attrCols.size, meduIdx -> 0)
    ResultAnalysis.explain(studentIx, p, k = 49)
  }

  test("aggregated Shapley covers every attribute") {
    assert(meduExpl.aggShapley.map(_._1).toSet == student.attrCols.toSet)
  }

  test("aggregated Shapley is sorted by magnitude") {
    val mags = meduExpl.aggShapley.map { case (_, v) => math.abs(v) }
    assert(mags.zip(mags.tail).forall { case (a, b) => a >= b })
  }

  test("the ranking attribute G3 has the largest Shapley value (Fig 10a analogue)") {
    assert(meduExpl.topAttr == "G3", s"got ${meduExpl.aggShapley.take(4)}")
  }

  test("correlated grade attributes G1/G2 appear among the top attributes") {
    // Signed group-aggregation partially cancels weakly-weighted attrs
    // (the paper notes the same for e.g. father's education), so allow a
    // little slack beyond the figure's top-6 cut.
    val top8 = meduExpl.aggShapley.take(8).map(_._1).toSet
    assert(top8.contains("G1") && top8.contains("G2"), s"top8=$top8")
  }

  test("group and top-k distributions are probability vectors") {
    for (dist <- Seq(meduExpl.groupDist, meduExpl.topkDist)) {
      assert(math.abs(dist.map(_._2).sum - 1.0) < 1e-9)
      assert(dist.forall(_._2 >= 0.0))
    }
  }

  test("distributions differ between the detected group and the top-k (Fig 10d analogue)") {
    // top-k is dominated by the highest G3 bucket; the under-represented
    // group is not.
    val l1 = meduExpl.groupDist.zip(meduExpl.topkDist)
      .map { case ((_, g), (_, t)) => math.abs(g - t) }.sum
    assert(l1 > 0.4, s"distributions unexpectedly close: L1=$l1")
  }

  test("top-k distribution concentrates on the top grade bucket") {
    val topBucket = meduExpl.topkDist.maxBy(_._2)
    assert(topBucket._1 == "3", s"top-k mode is G3=$topBucket")
    assert(topBucket._2 > 0.8)
  }

  test("rendered pattern names the defining attribute") {
    assert(meduExpl.rendered.contains("Medu"))
  }

  test("explain validates the pattern width") {
    intercept[IllegalArgumentException] {
      ResultAnalysis.explain(studentIx, Pattern.of(3, 0 -> 0), k = 10)
    }
  }

  test("german-like: scoring attributes dominate the attribution (Fig 10c analogue)") {
    val german = BiasDataGen.germanLike(spark, nAttrs = 10)
    val p = Pattern.of(10, 0 -> 0) // {status_account = low}
    val expl = ResultAnalysis.explain(Encoding.index(german.df, german.attrCols, german.rankCol), p, k = 49)
    val top4 = expl.aggShapley.take(4).map(_._1).toSet
    assert(Set("status_account", "duration", "credit_amount", "installment_rate")
      .intersect(top4).size >= 3, s"top4=$top4")
  }

  test("{Medu=0}: the distributions and aggregated Shapley values equal direct recomputations") {
    val attrs = student.attrCols
    val rows = student.df.collect()
    def label(r: Row, c: String): String = Option(r.getAs[Any](c)).fold(Encoding.NullLabel)(_.toString)
    val meduLabel = rows.map(label(_, "Medu")).distinct.min // value 0 of the sorted dictionary
    val group = rows.filter(label(_, "Medu") == meduLabel)
    // The surrogate refit here on the collected rows ordered by rank, each
    // label encoded by its position in its attribute's sorted labels.
    val dicts = attrs.toIndexedSeq.map(c => rows.map(label(_, c)).distinct.sorted.toIndexedSeq)
    val byRank = rows.sortBy(_.getAs[Int](student.rankCol))
    val encRows = byRank.map(r => Array.tabulate(attrs.length)(a => dicts(a).indexOf(label(r, attrs(a)))))
    val ranks = byRank.map(_.getAs[Int](student.rankCol).toDouble)
    val model = RidgeRegression.fit(encRows, ranks, attrs, dicts.map(_.size))
    val encGroup = encRows.filter(_(attrs.indexOf("Medu")) == 0)
    assert(encGroup.length == group.length)
    val phis = encGroup.map(Shapley.linearExact(model, _))
    // At k = 49 the top-k holds one G3 value only; k = 150 mixes them.
    for ((expl, k) <- Seq(meduExpl -> 49, ResultAnalysis.explain(studentIx, medu, k = 150) -> 150)) {
      // Distributions: shares by string label over the collected rows.
      val topK = rows.filter(_.getAs[Int](student.rankCol) <= k)
      for ((dist, rs) <- Seq(expl.groupDist -> group, expl.topkDist -> topK)) {
        val shares = rs.groupBy(label(_, expl.topAttr)).map { case (v, g) => v -> g.length.toDouble / rs.length }
        assert(shares.keySet.subsetOf(dist.map(_._1).toSet), s"k=$k: $shares vs $dist")
        for ((v, share) <- dist)
          assert(math.abs(share - shares.getOrElse(v, 0.0)) < 1e-9, s"k=$k $v: $share vs $shares")
      }
      // Aggregated Shapley: the mean of linearExact over the group.
      for ((a, v) <- expl.aggShapley) {
        val want = phis.map(_(attrs.indexOf(a))).sum / phis.length
        assert(math.abs(v - want) < 1e-9, s"k=$k $a: $v vs $want")
      }
    }
  }

  test("explain rejects a group no tuple matches") {
    val empty = studentIx.rows.iterator
      .map(r => Pattern(r.toVector.updated(0, 1 - r(0)))) // school has two values
      .find(studentIx.sizeD(_) == 0)
      .get
    val e = intercept[IllegalArgumentException](ResultAnalysis.explain(studentIx, empty, k = 49))
    assert(e.getMessage.contains("no tuple matches the group"))
  }

  test("explain rejects k outside [1, |D|]") {
    for (k <- Seq(-1, 0, studentIx.size + 1)) {
      val e = intercept[IllegalArgumentException](ResultAnalysis.explain(studentIx, medu, k))
      assert(e.getMessage.contains(s"k must be in [1, ${studentIx.size}]"), s"k=$k")
    }
  }

  test("explain rejects a pattern value outside its attribute's domain") {
    val meduIdx = student.attrCols.indexOf("Medu")
    val size = studentIx.domainSizes(meduIdx)
    for (v <- Seq(size, size + 1, -2)) {
      val p = Pattern.of(student.attrCols.size, meduIdx -> v)
      val e = intercept[IllegalArgumentException](ResultAnalysis.explain(studentIx, p, k = 49))
      assert(e.getMessage.contains(s"pattern value $v of Medu is outside [0, $size)"), s"v=$v")
    }
  }
}
