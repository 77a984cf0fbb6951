package repro.data

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.TestListenerBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core._
import repro.divergence.DivergenceExplorer

class EncodingSpec extends SparkSpec {

  private val attrs = Seq("gender", "school", "address", "failures")

  private lazy val rankedDf =
    RunningExample.df(spark).withColumnRenamed("paper_rank", "rank")

  test("dictionaries are sorted distinct string values") {
    val dicts = Encoding.dictionaries(rankedDf, attrs)
    assert(dicts(0) == IndexedSeq("F", "M"))
    assert(dicts(1) == IndexedSeq("GP", "MS"))
    assert(dicts(2) == IndexedSeq("R", "U"))
    assert(dicts(3) == IndexedSeq("0", "1", "2"))
  }

  test("index produces codes covering the declared domain sizes") {
    val ix = Encoding.index(rankedDf, attrs, "rank")
    assert(ix.domainSizes == IndexedSeq(2, 2, 2, 3))
    for ((c, i) <- attrs.zipWithIndex) {
      val vals = ix.rows.map(_(i)).toSet
      assert(vals == (0 until ix.domainSizes(i)).toSet, s"column $c")
    }
  }

  test("index built from the DataFrame equals the hand-built fixture") {
    val ix = Encoding.index(rankedDf, attrs, "rank")
    assert(ix.size == RunningExample.index.size)
    assert(ix.domainSizes == RunningExample.index.domainSizes)
    for (i <- 0 until ix.size)
      assert(ix.rows(i).toSeq == RunningExample.index.rows(i).toSeq, s"rank ${i + 1}")
  }

  test("null attribute values are encoded via the ∅ sentinel") {
    import spark.implicits._
    val df = Seq((1, Some("a"), 1), (2, None, 2), (3, Some("b"), 3))
      .toDF("id", "x", "rank")
    val ix = Encoding.index(df, Seq("x"), "rank")
    assert(ix.domainSizes == IndexedSeq(3))
    assert(ix.domains(0).contains("∅"))
    assert(ix.rows.map(_(0)).toSet == Set(0, 1, 2))
  }

  test("a column holding the literal null sentinel is rejected by name") {
    import spark.implicits._
    val df = Seq((Some("a"), Some("∅"), 1), (Some("b"), None, 2), (None, Some("c"), 3))
      .toDF("ok", "clash", "rank")
    val e = intercept[IllegalArgumentException](Encoding.dictionaries(df, Seq("ok", "clash")))
    assert(e.getMessage.contains("clash") && !e.getMessage.contains("ok"))
    val ranked = Seq(("c", 1), ("∅", 2)).toDF("clash", "rank")
    val ei = intercept[IllegalArgumentException](Encoding.index(ranked, Seq("clash"), "rank"))
    assert(ei.getMessage.contains("column clash holds the string ∅"), ei.getMessage)
    assert(Encoding.dictionaries(df, Seq("ok")) == IndexedSeq(IndexedSeq("a", "b", "∅")))
  }

  test("numeric attribute columns are treated as categorical via string form") {
    val ix = Encoding.index(rankedDf, Seq("failures"), "rank")
    assert(ix.domainSizes == IndexedSeq(3))
    assert(ix.domains(0) == IndexedSeq("0", "1", "2"))
  }

  test("one-pass dictionaries equal the per-attribute distinct definition") {
    import spark.implicits._
    val df = Seq(
      (Some("b"), Some(3), Option.empty[Int], 2.5, 1),
      (None, Some(1), None, 2.5, 2),
      (Some("a"), None, None, 10.0, 3),
      (Some("b"), Some(3), None, -1.0, 4),
      (None, Some(20), None, 2.5, 5),
    ).toDF("s", "i", "allNull", "d", "rank")
    val cols = Seq("s", "i", "allNull", "d")
    val perAttribute = cols.toIndexedSeq.map { c =>
      df.select(col(c).cast("string")).distinct().collect()
        .map(r => Option(r.getString(0)).getOrElse("∅")).sorted.toIndexedSeq
    }
    val dicts = Encoding.dictionaries(df, cols)
    assert(dicts == perAttribute)
    assert(dicts(0) == IndexedSeq("a", "b", "∅"))
    assert(dicts(1) == IndexedSeq("1", "20", "3", "∅"))
    assert(dicts(2) == IndexedSeq("∅"))
    assert(Encoding.index(df, cols, "rank").domains == dicts)
  }

  test("round trip: decoding an encoded value yields the original label") {
    val ix = Encoding.index(rankedDf, attrs, "rank")
    val first = ix.rows(0)
    // rank 1 is student 12: F, GP, U, 0
    assert(ix.domains(0)(first(0)) == "F")
    assert(ix.domains(1)(first(1)) == "GP")
    assert(ix.domains(2)(first(2)) == "U")
    assert(ix.domains(3)(first(3)) == "0")
  }

  test("an empty attribute list gives a width-0 index on which every detector finds nothing") {
    val ix = Encoding.index(rankedDf, Nil, "rank")
    assert(ix.width == 0 && ix.size == 16)
    val c = new LocalPatternCounter(ix)
    val none = (1 to 16).map(_ -> Set.empty[Pattern]).toMap
    val global = GlobalLowerBound(_ => 2.0)
    val prop = ProportionalLowerBound(0.9, 16)
    val runs = Seq(
      IterTD.run(c, global, 1, 1, 16),
      IterTD.run(c, prop, 1, 1, 16),
      GlobalBounds.run(c, global, 1, 1, 16),
      PropBounds.run(c, 0.9, 1, 1, 16),
    )
    for (r <- runs) assert(r.resByK == none && r.examined == 0 && !r.timedOut)
    assert(BruteForce.run(ix, global, 1, 1, 16) == none && BruteForce.run(ix, prop, 1, 1, 16) == none)
    assert(DivergenceExplorer.run(c, k = 5, minSupport = 1).isEmpty)
  }

  test("rows are placed by rank, whatever the partitioning and order of the input") {
    val german = BiasDataGen.germanLike(spark, nAttrs = 6)
    for ((df, cols) <- Seq(rankedDf -> attrs, german.df -> german.attrCols)) {
      // The labels of the frame ordered by rank, null read as ∅.
      val sorted = df.orderBy("rank").select(cols.map(col(_).cast("string")): _*).collect()
        .map(r => Seq.tabulate(cols.size)(a => Option(r.getString(a)).getOrElse("∅"))).toSeq
      val inputs = Seq(
        df,
        df.repartition(7),
        df.orderBy(col("rank").desc),
        df.repartition(5).sortWithinPartitions(rand(3)),
      )
      for ((in, i) <- inputs.zipWithIndex) {
        val ix = Encoding.index(in, cols, "rank")
        val decoded = ix.rows.map(r => Seq.tabulate(cols.size)(a => ix.domains(a)(r(a)))).toSeq
        assert(decoded == sorted, s"input $i")
      }
    }
    german.df.unpersist()
  }

  test("index runs one Spark job on a cached, materialised frame") {
    val german = BiasDataGen.germanLike(spark, nAttrs = 6)
    german.df.count()
    val sc = spark.sparkContext
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    TestListenerBus.drain(sc)
    sc.addSparkListener(listener)
    try {
      Encoding.index(german.df, german.attrCols, german.rankCol)
      TestListenerBus.drain(sc)
    } finally sc.removeSparkListener(listener)
    assert(jobs.get == 1)
    german.df.unpersist()
  }

  test("a rank gap, a repeated rank or a null rank is rejected, naming the rank column") {
    import spark.implicits._
    def ranked(pos: Option[Int]*) = pos.zipWithIndex.map { case (p, i) => (s"v$i", p) }.toDF("x", "pos")
    for (bad <- Seq(ranked(Some(1), Some(2), Some(4)), ranked(Some(1), Some(2), Some(2)),
                    ranked(Some(0), Some(1), Some(2)), ranked(Some(1), None, Some(2)))) {
      val e = intercept[IllegalArgumentException](Encoding.index(bad, Seq("x"), "pos"))
      assert(e.getMessage.contains("pos"), e.getMessage)
    }
    assert(Encoding.index(ranked(Some(3), Some(1), Some(2)), Seq("x"), "pos").rows.map(_.toSeq).toSeq ==
      Seq(Seq(1), Seq(2), Seq(0)))
  }
}
