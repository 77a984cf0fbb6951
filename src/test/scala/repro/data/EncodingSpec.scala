package repro.data

import org.apache.spark.TestListenerBus
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
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

    // Boolean, long, decimal, float, double, date and timestamp columns,
    // the timestamps rendered in a zone whose DST fall-back repeats an
    // hour: 08:30 and 09:30 UTC on 2021-11-07 are both 01:30 in Los Angeles.
    val nan2 = java.lang.Double.longBitsToDouble(0x7ff0000000000abcL)
    val floatNan2 = java.lang.Float.intBitsToFloat(0x7f800abc)
    val earlier = java.sql.Timestamp.from(java.time.Instant.parse("2021-11-07T08:30:00Z"))
    val later = java.sql.Timestamp.from(java.time.Instant.parse("2021-11-07T09:30:00Z"))
    val noon = java.sql.Timestamp.from(java.time.Instant.parse("2021-11-07T20:00:00Z"))
    val day = java.sql.Date.valueOf("2021-11-07")
    val typed = spark.createDataFrame(java.util.Arrays.asList(
      Row(true, 3L, BigDecimal("1.50"), -0.0f, -0.0, day, earlier, 1),
      Row(false, Long.MinValue, BigDecimal("-2.00"), 0.0f, 0.0, null, later, 2),
      Row(null, Long.MaxValue, null, Float.NaN, Double.NaN, day, noon, 3),
      Row(true, 3L, BigDecimal("1.50"), floatNan2, nan2, java.sql.Date.valueOf("1969-12-31"), null, 4),
      Row(true, -3L, BigDecimal("0.00"), 1.5f, -0.0, day, later, 5),
    ), StructType(Seq(
      StructField("b", BooleanType), StructField("l", LongType), StructField("dec", DecimalType(10, 2)),
      StructField("f", FloatType), StructField("d", DoubleType), StructField("date", DateType),
      StructField("ts", TimestampType), StructField("rank", IntegerType))))
    val typedCols = typed.columns.toSeq.init
    val zoneKey = "spark.sql.session.timeZone"
    val zone = spark.conf.get(zoneKey)
    spark.conf.set(zoneKey, "America/Los_Angeles")
    try {
      val perTypedAttribute = typedCols.toIndexedSeq.map { c =>
        typed.select(col(c).cast("string")).distinct().collect()
          .map(r => Option(r.getString(0)).getOrElse("∅")).sorted.toIndexedSeq
      }
      val typedDicts = Encoding.dictionaries(typed, typedCols)
      assert(typedDicts == perTypedAttribute)
      assert(typedDicts(0) == IndexedSeq("false", "true", "∅"))
      assert(typedDicts(1) == IndexedSeq("-3", "-9223372036854775808", "3", "9223372036854775807"))
      assert(typedDicts(2) == IndexedSeq("-2.00", "0.00", "1.50", "∅"))
      assert(typedDicts(3) == IndexedSeq("-0.0", "0.0", "1.5", "NaN"))
      assert(typedDicts(4) == IndexedSeq("-0.0", "0.0", "NaN"))
      assert(typedDicts(5) == IndexedSeq("1969-12-31", "2021-11-07", "∅"))
      assert(typedDicts(6) == IndexedSeq("2021-11-07 01:30:00", "2021-11-07 12:00:00", "∅"))
      val ix = Encoding.index(typed, typedCols, "rank")
      assert(ix.domains == typedDicts)
      // the two instants that share a label share a code
      assert(ix.rows(0)(6) == ix.rows(1)(6) && ix.rows(1)(6) == ix.rows(4)(6))
    } finally spark.conf.set(zoneKey, zone)
  }

  test("binary, array, map and struct attributes are rejected by column name before any Spark job") {
    val df = spark.createDataFrame(java.util.Arrays.asList(
      Row(1, Array[Byte](1, 2), Seq(1, 2), Map("a" -> 1), Row(1, "x"), 1),
      Row(2, Array[Byte](3), Seq(3), Map("b" -> 2), Row(2, "y"), 2),
    ), StructType(Seq(
      StructField("ok", IntegerType), StructField("bin", BinaryType), StructField("arr", ArrayType(IntegerType)),
      StructField("map", MapType(StringType, IntegerType)),
      StructField("st", StructType(Seq(StructField("i", IntegerType), StructField("s", StringType)))),
      StructField("rank", IntegerType))))
    for (bad <- Seq("bin", "arr", "map", "st")) {
      val (e, jobs) = TestListenerBus.jobsDuring(spark.sparkContext)(
        intercept[IllegalArgumentException](Encoding.index(df, Seq("ok", bad), "rank")))
      assert(e.getMessage.contains(s"attribute column $bad has type") && !e.getMessage.contains("column ok"), e.getMessage)
      assert(jobs == 0, bad)
      val (ed, dictJobs) = TestListenerBus.jobsDuring(spark.sparkContext)(
        intercept[IllegalArgumentException](Encoding.dictionaries(df, Seq(bad))))
      assert(ed.getMessage == e.getMessage && dictJobs == 0, bad)
    }
    assert(Encoding.index(df, Seq("ok"), "rank").domains == IndexedSeq(IndexedSeq("1", "2")))
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

  test("index runs one Spark job on a generated frame") {
    val german = BiasDataGen.germanLike(spark, nAttrs = 6)
    val (_, jobs) = TestListenerBus.jobsDuring(spark.sparkContext)(Encoding.index(german.df, german.attrCols, german.rankCol))
    assert(jobs == 1)
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

  /** A frame of `(x, rank)` rows split into partitions as given. */
  private def partitioned(parts: Seq[(String, Int)]*): DataFrame = {
    val rows = parts.flatten.map { case (x, r) => Row(x, r) }
    val schema = StructType(Seq(StructField("x", StringType), StructField("rank", IntegerType)))
    val df = spark.createDataFrame(spark.sparkContext.parallelize(rows, parts.size), schema)
    // parallelize cuts a sequence evenly, so equal-sized parts are kept as given
    assert(df.rdd.glom().collect().map(_.map(r => (r.getString(0), r.getInt(1))).toSeq).toSeq == parts)
    df
  }

  /** Asserts that `index` decodes each rank back to its label and that
    * `dictionaries` equals the index's domains.
    */
  private def assertPartitionedEncoding(df: DataFrame): Unit = {
    val want = df.collect().map(r => r.getInt(1) -> Option(r.getString(0)).getOrElse("∅")).sortBy(_._1).map(_._2).toSeq
    val ix = Encoding.index(df, Seq("x"), "rank")
    assert(ix.rows.map(r => ix.domains(0)(r(0))).toSeq == want)
    assert(ix.domains(0) == want.distinct.sorted)
    assert(Encoding.dictionaries(df, Seq("x")) == ix.domains)
  }

  test("a label seen in one partition only gets its code in the merged dictionary") {
    assertPartitionedEncoding(partitioned(
      Seq("b" -> 4, "a" -> 1), Seq("a" -> 6, "c" -> 2), Seq("b" -> 3, "a" -> 5)))
  }

  test("null seen in some partitions only is encoded as ∅ in every partition") {
    assertPartitionedEncoding(partitioned(
      Seq("b" -> 2, (null, 5)), Seq("a" -> 1, "b" -> 6), Seq((null, 3), "a" -> 4)))
  }

  test("empty partitions add nothing to the dictionaries or rows") {
    val df = partitioned(Seq("b" -> 3, (null, 1), "a" -> 2)).repartition(8)
    assert(df.rdd.glom().collect().count(_.isEmpty) >= 5)
    assertPartitionedEncoding(df)
  }

  test("a ∅ seen in the last partition only is rejected by column name") {
    val df = partitioned(Seq("a" -> 1, "b" -> 2), Seq("a" -> 3, "b" -> 4), Seq("c" -> 5, "∅" -> 6))
      .withColumnRenamed("x", "clash")
    val e = intercept[IllegalArgumentException](Encoding.dictionaries(df, Seq("clash")))
    assert(e.getMessage.contains("column clash holds the string ∅"), e.getMessage)
    val ei = intercept[IllegalArgumentException](Encoding.index(df, Seq("clash"), "rank"))
    assert(ei.getMessage.contains("column clash holds the string ∅"), ei.getMessage)
  }
}
