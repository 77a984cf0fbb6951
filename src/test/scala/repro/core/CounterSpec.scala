package repro.core

import repro.{Oracle, SparkSpec}
import repro.data.Encoding

/** Agreement of the two counting engines with each other and with the
  * DuckDB oracle, on the running example and on generated data.
  */
class CounterSpec extends SparkSpec {
  import RunningExample.p

  private lazy val exampleDf = {
    val df = RunningExample.df(spark)
    df.withColumnRenamed("paper_rank", "rank")
  }

  private lazy val sparkCounter = {
    val (enc, domainSizes, _) =
      Encoding.encode(exampleDf, Seq("gender", "school", "address", "failures"), "rank")
    new SparkPatternCounter(enc, Seq("gender", "school", "address", "failures"), "rank", domainSizes)
  }

  private val localCounter = new LocalPatternCounter(RunningExample.index)

  test("spark counter reports dataset size 16") {
    assert(sparkCounter.datasetSize == 16L)
  }

  test("spark counter: Example 2.3 counts for {School=GP}") {
    val m = sparkCounter.countBatch(Seq(p(1 -> 0)), 5)
    assert(m(p(1 -> 0)) == (8L, 1L))
  }

  test("spark and local counters agree on every level-1 pattern, all k") {
    val pats = Pattern.root(4).searchTreeChildren(IndexedSeq(2, 2, 2, 3))
    for (k <- Seq(1, 4, 5, 10, 16)) {
      val s = sparkCounter.countBatch(pats, k)
      val l = localCounter.countBatch(pats, k)
      assert(s == l, s"k=$k")
    }
  }

  test("spark and local counters agree on deep and empty patterns") {
    val pats = Seq(
      Pattern.root(4),
      p(0 -> 0, 1 -> 0, 2 -> 0, 3 -> 0),
      p(0 -> 1, 1 -> 1, 2 -> 0, 3 -> 2),
      p(0 -> 0, 3 -> 2),
    )
    val s = sparkCounter.countBatch(pats, 5)
    val l = localCounter.countBatch(pats, 5)
    assert(s == l)
  }

  test("batch larger than the chunk size is still correct") {
    val doms = IndexedSeq(2, 2, 2, 3)
    val all = Iterator
      .iterate(Seq(Pattern.root(4)))(_.flatMap(_.searchTreeChildren(doms)))
      .drop(1)
      .take(4)
      .flatten
      .toSeq
    assert(all.size > 64)
    val s = sparkCounter.countBatch(all, 7)
    val l = localCounter.countBatch(all, 7)
    assert(s == l)
  }

  test("local countBatch equals naive scans at the word boundaries of n and k") {
    for (n <- KernelBatches.Sizes) {
      val rix = RandomData.index(seed = n + 100, n = n, m = 4)
      val counter = new LocalPatternCounter(rix)
      val rnd = new scala.util.Random(n + 100)
      for (k <- KernelBatches.ks(n); (name, batch) <- KernelBatches.batches(rix.domainSizes, rnd)) {
        val got = counter.countBatch(batch, k)
        assert(got.keySet == batch.toSet, s"n=$n k=$k batch=$name")
        for (pat <- batch) {
          val naive = (rix.rows.count(pat.matches).toLong, rix.rows.take(k).count(pat.matches).toLong)
          assert(got(pat) == naive, s"$pat n=$n k=$k batch=$name")
        }
      }
    }
  }

  test("spark counter rankedRow matches the index") {
    for (r <- 1 to 16)
      assert(sparkCounter.rankedRow(r).toSeq == RunningExample.index.rows(r - 1).toSeq)
  }

  test("pattern counts validated against DuckDB") {
    import org.apache.spark.sql.functions._
    val df = exampleDf
    val sparkAgg = df.agg(
      sum(when(col("school") === "GP", 1L).otherwise(0L)).alias("gp_total"),
      sum(when(col("school") === "GP" && col("rank") <= 5, 1L).otherwise(0L)).alias("gp_top5"),
      sum(when(col("gender") === "F" && col("address") === "R", 1L).otherwise(0L)).alias("fr_total"),
    )
    Oracle.assertEquivalent(
      sparkAgg,
      """SELECT
        |  sum(CASE WHEN school = 'GP' THEN 1 ELSE 0 END) AS gp_total,
        |  sum(CASE WHEN school = 'GP' AND CAST(rank AS INT) <= 5 THEN 1 ELSE 0 END) AS gp_top5,
        |  sum(CASE WHEN gender = 'F' AND address = 'R' THEN 1 ELSE 0 END) AS fr_total
        |FROM students""".stripMargin,
      "students" -> df,
    )
  }

  test("top-down search over the spark counter equals the local result (global)") {
    val bound = GlobalLowerBound(_ => 2.0)
    val s = TopDownSearch.singleK(sparkCounter, bound, 4, 4)
    val l = TopDownSearch.singleK(localCounter, bound, 4, 4)
    assert(s.res.toSet == l.res.toSet && s.dres.toSet == l.dres.toSet)
  }

  test("top-down search over the spark counter equals the local result (proportional)") {
    val bound = ProportionalLowerBound(0.9, 16)
    val s = TopDownSearch.singleK(sparkCounter, bound, 5, 4)
    val l = TopDownSearch.singleK(localCounter, bound, 5, 4)
    assert(s.res.toSet == l.res.toSet)
  }

  test("GLOBALBOUNDS runs identically on the spark counter") {
    val bound = GlobalLowerBound(_ => 2.0)
    val s = GlobalBounds.run(sparkCounter, bound, 4, 4, 6)
    val l = GlobalBounds.run(localCounter, bound, 4, 4, 6)
    assert(s.resByK == l.resByK)
  }

  test("PROPBOUNDS runs identically on the spark counter") {
    val s = PropBounds.run(sparkCounter, 0.9, 5, 4, 6)
    val l = PropBounds.run(localCounter, 0.9, 5, 4, 6)
    assert(s.resByK == l.resByK)
  }
}
