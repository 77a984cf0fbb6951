package repro.data

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

  test("encode produces integer columns with the declared domain sizes") {
    val (enc, domainSizes, _) = Encoding.encode(rankedDf, attrs, "rank")
    assert(domainSizes == IndexedSeq(2, 2, 2, 3))
    for ((c, i) <- attrs.zipWithIndex) {
      val vals = enc.select(c).distinct().collect().map(_.getInt(0)).toSet
      assert(vals == (0 until domainSizes(i)).toSet, s"column $c")
    }
  }

  test("index built from the DataFrame equals the hand-built fixture") {
    val ix = Encoding.index(rankedDf, attrs, "rank")
    assert(ix.size == RunningExample.index.size)
    assert(ix.domainSizes == RunningExample.index.domainSizes)
    for (i <- 0 until ix.size)
      assert(ix.rows(i).toSeq == RunningExample.index.rows(i).toSeq, s"rank ${i + 1}")
  }

  test("encoding preserves the rank column") {
    val (enc, _, _) = Encoding.encode(rankedDf, attrs, "rank")
    val ranks = enc.select("rank").collect().map(_.getInt(0)).sorted
    assert(ranks.toSeq == (1 to 16))
  }

  test("null attribute values are encoded via the ∅ sentinel") {
    import spark.implicits._
    val df = Seq((1, Some("a"), 1), (2, None, 2), (3, Some("b"), 3))
      .toDF("id", "x", "rank")
    val (enc, domainSizes, dicts) = Encoding.encode(df, Seq("x"), "rank")
    assert(domainSizes == IndexedSeq(3))
    assert(dicts(0).contains("∅"))
    assert(enc.select("x").collect().map(_.getInt(0)).toSet == Set(0, 1, 2))
  }

  test("a column holding the literal null sentinel is rejected by name") {
    import spark.implicits._
    val df = Seq((Some("a"), Some("∅"), 1), (Some("b"), None, 2), (None, Some("c"), 3))
      .toDF("ok", "clash", "rank")
    val e = intercept[IllegalArgumentException](Encoding.dictionaries(df, Seq("ok", "clash")))
    assert(e.getMessage.contains("clash") && !e.getMessage.contains("ok"))
    intercept[IllegalArgumentException](Encoding.index(df.filter($"clash".isNotNull), Seq("clash"), "rank"))
    assert(Encoding.dictionaries(df, Seq("ok")) == IndexedSeq(IndexedSeq("a", "b", "∅")))
  }

  test("numeric attribute columns are treated as categorical via string form") {
    val (_, domainSizes, dicts) = Encoding.encode(rankedDf, Seq("failures"), "rank")
    assert(domainSizes == IndexedSeq(3))
    assert(dicts(0) == IndexedSeq("0", "1", "2"))
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
  }

  test("round trip: decoding an encoded value yields the original label") {
    val (enc, _, dicts) = Encoding.encode(rankedDf, attrs, "rank")
    val first = enc.orderBy("rank").limit(1).collect()(0)
    // rank 1 is student 12: F, GP, U, 0
    assert(dicts(0)(first.getInt(0)) == "F")
    assert(dicts(1)(first.getInt(1)) == "GP")
    assert(dicts(2)(first.getInt(2)) == "U")
    assert(dicts(3)(first.getInt(3)) == "0")
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
      val (enc, _, _) = Encoding.encode(df, cols, "rank")
      val sorted = enc.orderBy("rank").collect().map(r => Array.tabulate(cols.size)(r.getInt)).toSeq
      val inputs = Seq(
        df,
        df.repartition(7),
        df.orderBy(col("rank").desc),
        df.repartition(5).sortWithinPartitions(rand(3)),
      )
      for ((in, i) <- inputs.zipWithIndex) {
        val ix = Encoding.index(in, cols, "rank")
        assert(ix.rows.map(_.toSeq).toSeq == sorted.map(_.toSeq), s"input $i")
      }
    }
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
