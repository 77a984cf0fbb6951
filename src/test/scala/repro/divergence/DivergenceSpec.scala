package repro.divergence

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.{BruteForce, LocalPatternCounter, RunningExample}
import repro.core.IndexCounts._

class DivergenceSpec extends SparkSpec {
  import RunningExample.p
  private val ix = RunningExample.index
  private val counter = new LocalPatternCounter(ix)

  test("enumerates exactly the patterns with support ≥ S") {
    val got = DivergenceExplorer.run(counter, k = 5, minSupport = 4)
    val expected = BruteForce.tauRegion(ix, 4).toSet
    assert(got.map(_.p).toSet == expected)
  }

  test("divergence values match the definition o(G) − o(D)") {
    val got = DivergenceExplorer.run(counter, k = 5, minSupport = 4)
    val oD = 5.0 / 16
    for (g <- got) {
      val sD = ix.sizeD(g.p)
      val top = ix.sizes(g.p, 5)._2
      assert(g.support == sD)
      assert(math.abs(g.outcome - top.toDouble / sD) < 1e-12)
      assert(math.abs(g.divergence - (top.toDouble / sD - oD)) < 1e-12)
    }
  }

  test("output is sorted by divergence descending") {
    val got = DivergenceExplorer.run(counter, k = 5, minSupport = 4)
    val divs = got.map(_.divergence)
    assert(divs.zip(divs.tail).forall { case (a, b) => a >= b })
  }

  test("the MS-school group has positive divergence in the top-5 (Figure 1)") {
    // top-5 holds 4 MS students of 8 → outcome 0.5 vs o(D)=0.3125.
    val got = DivergenceExplorer.run(counter, k = 5, minSupport = 4)
    val ms = got.find(_.p == p(1 -> 1)).get
    assert(math.abs(ms.divergence - (0.5 - 0.3125)) < 1e-12)
    val gp = got.find(_.p == p(1 -> 0)).get
    assert(gp.divergence < 0)
  }

  test("unlike our algorithms, subsumed subgroups are reported too") {
    val got = DivergenceExplorer.run(counter, k = 5, minSupport = 4).map(_.p).toSet
    assert(got.contains(p(1 -> 1)) && got.contains(p(0 -> 0, 1 -> 1)),
      "both {School=MS} and its child {Gender=F, School=MS} must be present")
  }

  test("higher support threshold is more selective") {
    val lo = DivergenceExplorer.run(counter, k = 5, minSupport = 4)
    val hi = DivergenceExplorer.run(counter, k = 5, minSupport = 8)
    assert(hi.size < lo.size)
    assert(hi.map(_.p).toSet.subsetOf(lo.map(_.p).toSet))
  }

  test("group outcome aggregation validated against DuckDB") {
    val df = RunningExample.df(spark).withColumnRenamed("paper_rank", "rank")
    val sparkAgg = df
      .groupBy(col("school"))
      .agg(
        (sum(when(col("rank") <= 5, 1.0).otherwise(0.0)) / count(lit(1))).alias("outcome"),
        count(lit(1)).alias("support"),
      )
      .select(col("school"), col("outcome"), col("support"))
    Oracle.assertEquivalent(
      sparkAgg,
      """SELECT school,
        |       sum(CASE WHEN CAST(rank AS INT) <= 5 THEN 1.0 ELSE 0.0 END) / count(*) AS outcome,
        |       count(*) AS support
        |FROM students GROUP BY school""".stripMargin,
      "students" -> df,
    )
  }

  test("rejects a support threshold below 1, which would report groups of no tuples") {
    // With minSupport = 0 a pattern of s_D = 0 is opened, and its outcome
    // 0/0 is NaN.
    for (s <- Seq(0L, -2L)) {
      val e = intercept[IllegalArgumentException](DivergenceExplorer.run(counter, k = 5, minSupport = s))
      assert(e.getMessage.contains(s"τ_s must be at least 1, got $s"))
    }
  }

  test("rejects k outside [1, |D|]") {
    for (k <- Seq(0, -1, 17)) {
      val e = intercept[IllegalArgumentException](DivergenceExplorer.run(counter, k = k, minSupport = 4))
      assert(e.getMessage.contains(s"bad range [$k,$k]"))
    }
  }

  test("empty result when no pattern meets the support threshold") {
    val got = DivergenceExplorer.run(counter, k = 5, minSupport = 17)
    assert(got.isEmpty)
  }

  test("divergences sum-weighted by support balance around zero") {
    // Σ_p level-1 single-attribute groups of one attribute partition D, so
    // Σ support·divergence = Σ support·o(G) − |D|·o(D) = k − k = 0.
    val got = DivergenceExplorer.run(counter, k = 5, minSupport = 1)
    for (a <- 0 until 4) {
      val groups = got.filter(g => g.p.level == 1 && g.p.attrs == Seq(a))
      val weighted = groups.map(g => g.support * g.divergence).sum
      assert(math.abs(weighted) < 1e-9, s"attribute $a: $weighted")
    }
  }
}
