package repro.data

import org.apache.spark.TestListenerBus
import org.apache.spark.sql.functions._
import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import repro.SparkSpec
import repro.core.{GlobalLowerBound, IterTD, LocalPatternCounter}

class BiasDataGenSpec extends SparkSpec {

  private lazy val student = BiasDataGen.studentLike(spark)
  private lazy val compas = BiasDataGen.compasLike(spark)
  private lazy val german = BiasDataGen.germanLike(spark)

  test("student-like dataset has 395 rows and 33 pattern attributes") {
    assert(student.df.count() == 395)
    assert(student.attrCols.size == 33)
  }

  test("compas-like dataset has 6889 rows and 16 pattern attributes") {
    assert(compas.df.count() == 6889)
    assert(compas.attrCols.size == 16)
  }

  test("german-like dataset has 1000 rows and 20 pattern attributes") {
    assert(german.df.count() == 1000)
    assert(german.attrCols.size == 20)
  }

  test("student marginals approximate the real dataset (VI-D case study)") {
    val n = 395.0
    val gp = student.df.filter(col("school") === 0).count() / n
    val m = student.df.filter(col("sex") === 1).count() / n
    val u = student.df.filter(col("address") === 1).count() / n
    assert(math.abs(gp - 349.0 / 395) < 0.06, s"school=GP marginal $gp")
    assert(math.abs(m - 208.0 / 395) < 0.08, s"sex=M marginal $m")
    assert(math.abs(u - 307.0 / 395) < 0.08, s"address=U marginal $u")
  }

  test("generation is deterministic in the seed") {
    val a = BiasDataGen.studentLike(spark, nAttrs = 8).df.select("rank", "school", "sex").collect()
    val b = BiasDataGen.studentLike(spark, nAttrs = 8).df.select("rank", "school", "sex").collect()
    assert(a.map(_.toSeq).toSeq == b.map(_.toSeq).toSeq)
  }

  test("different seeds give different rankings") {
    val a = BiasDataGen.studentLike(spark, nAttrs = 8, seed = 1).df
      .orderBy("rank").limit(20).select("row_id").collect().map(_.getLong(0)).toSeq
    val b = BiasDataGen.studentLike(spark, nAttrs = 8, seed = 2).df
      .orderBy("rank").limit(20).select("row_id").collect().map(_.getLong(0)).toSeq
    assert(a != b)
  }

  test("attribute cardinalities stay within the declared domains") {
    for (c <- compas.attrCols) {
      val mx = compas.df.agg(max(col(c))).collect()(0).getInt(0)
      val mn = compas.df.agg(min(col(c))).collect()(0).getInt(0)
      assert(mn >= 0 && mx <= 3, s"$c out of range [$mn,$mx]")
    }
  }

  test("nAttrs truncates the schema from the right") {
    val small = BiasDataGen.compasLike(spark, nAttrs = 5)
    assert(small.attrCols.size == 5)
    assert(small.attrCols == compas.attrCols.take(5))
  }

  test("scoring attributes drive the ranking: top-k skews towards high-score buckets") {
    // priors_count has the largest positive weight in compas; its mean
    // in the top 100 must exceed the dataset mean.
    val top = compas.df.filter(col("rank") <= 100).agg(avg("priors_count")).collect()(0).getDouble(0)
    val all = compas.df.agg(avg("priors_count")).collect()(0).getDouble(0)
    assert(top > all + 0.5, s"top=$top all=$all")
  }

  test("age contributes negatively in compas: old buckets are under-represented on top") {
    val top = compas.df.filter(col("rank") <= 100).agg(avg("age_bucket")).collect()(0).getDouble(0)
    val all = compas.df.agg(avg("age_bucket")).collect()(0).getDouble(0)
    assert(top < all - 0.3, s"top=$top all=$all")
  }

  test("the generated bias is detectable by the search (paper defaults)") {
    val ix = Encoding.index(student.df, student.attrCols.take(8), student.rankCol)
    val res = IterTD.run(
      new LocalPatternCounter(ix), GlobalLowerBound.paperDefault, tauS = 50, kMin = 10, kMax = 20)
    assert(res.resByK.values.exists(_.nonEmpty), "no biased groups detected at all")
  }

  test("generate rejects duplicate attribute names") {
    intercept[IllegalArgumentException] {
      BiasDataGen.generate(
        spark, "dup", 10,
        Seq(BiasDataGen.AttrSpec("x", 2), BiasDataGen.AttrSpec("x", 3)), 0.1, 1)
    }
  }

  test("AttrSpec validates cardinality and probability length") {
    intercept[IllegalArgumentException](BiasDataGen.AttrSpec("x", 1))
    intercept[IllegalArgumentException](BiasDataGen.AttrSpec("x", 3, probs = Seq(0.5, 0.5)))
  }

  test("skewed marginals follow the declared probabilities") {
    val ds = BiasDataGen.generate(
      spark, "skew", 4000,
      Seq(BiasDataGen.AttrSpec("a", 3, probs = Seq(0.7, 0.2, 0.1)), BiasDataGen.AttrSpec("b", 2)),
      0.1, 5)
    val counts = ds.df.groupBy("a").count().collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
    assert(math.abs(counts(0) / 4000.0 - 0.7) < 0.05)
    assert(math.abs(counts(1) / 4000.0 - 0.2) < 0.05)
    assert(math.abs(counts(2) / 4000.0 - 0.1) < 0.05)
  }

  /** Asserts that `got` equals the expression-built oracle's output: the
    * schema, and every column of every row, the doubles bit for bit.
    */
  private def assertSameAsOracle(got: BiasDataGen.RankedDataset, want: BiasDataGen.RankedDataset): Unit =
    try {
      assert(got.df.schema == want.df.schema)
      assert((got.attrCols, got.rankCol) == (want.attrCols, want.rankCol))
      def rows(ds: BiasDataGen.RankedDataset) = ds.df.orderBy("row_id").collect().toSeq.map(_.toSeq.map {
        case d: Double => java.lang.Double.doubleToRawLongBits(d)
        case v => v
      })
      val (g, w) = (rows(got), rows(want))
      assert(g.size == w.size)
      val firstDiff = g.indices.find(i => g(i) != w(i))
      assert(firstDiff.isEmpty, firstDiff.map(i => s"row_id $i: ${g(i)} vs ${w(i)}").getOrElse(""))
    } finally want.df.unpersist()

  test("compas-, student- and german-like data equal the expression-built generator's, at three seeds each") {
    for (seed <- Seq(42L, 1L, 7L))
      assertSameAsOracle(BiasDataGen.compasLike(spark, seed = seed),
        GeneratorOracle.generate(spark, "compas", 6889, BiasDataGen.compasSpecs(16), 0.10, seed))
    for (seed <- Seq(7L, 1L, 2L))
      assertSameAsOracle(BiasDataGen.studentLike(spark, seed = seed),
        GeneratorOracle.generate(spark, "student", 395, BiasDataGen.studentSpecs(33), 0.15, seed))
    for (seed <- Seq(11L, 3L, 5L))
      assertSameAsOracle(BiasDataGen.germanLike(spark, seed = seed),
        GeneratorOracle.generate(spark, "german", 1000, BiasDataGen.germanSpecs(20), 0.10, seed))
  }

  test("scaled compas data equal the expression-built generator's at a row count no partition count divides") {
    assertSameAsOracle(BiasDataGen.compasScaled(spark, 10007),
      GeneratorOracle.generate(spark, "compas", 10007, BiasDataGen.compasSpecs(16), 0.10, 42))
  }

  test("a dataset without scoring attributes equals the expression-built generator's") {
    val specs = Seq(BiasDataGen.AttrSpec("a", 3, latentCorr = -0.4), BiasDataGen.AttrSpec("b", 2))
    assertSameAsOracle(BiasDataGen.generate(spark, "flat", 500, specs, 0.2, 9),
      GeneratorOracle.generate(spark, "flat", 500, specs, 0.2, 9))
  }

  test("tie-heavy data without noise equal the expression-built generator's, signed zeros tied") {
    // score = −0.5 · a/2 + 0.0 · randn: three tie blocks, the top one of
    // −0.0 and +0.0 (the sign of the zero noise term) mixed.
    val specs = Seq(BiasDataGen.AttrSpec("a", 3, weight = -0.5), BiasDataGen.AttrSpec("b", 2, latentCorr = 0.3))
    val got = BiasDataGen.generate(spark, "ties", 3001, specs, 0.0, 4)
    val zeros = got.df.filter(col("a") === 0).select("score").collect()
      .map(r => java.lang.Double.doubleToRawLongBits(r.getDouble(0))).toSet
    assert(zeros == Set(0L, java.lang.Double.doubleToRawLongBits(-0.0)), "both signed zeros occur")
    assertSameAsOracle(got, GeneratorOracle.generate(spark, "ties", 3001, specs, 0.0, 4))
  }

  test("without a scoring attribute or noise every score ties, and rank is row_id + 1") {
    val specs = Seq(BiasDataGen.AttrSpec("a", 4), BiasDataGen.AttrSpec("b", 2, latentCorr = -0.6))
    val got = BiasDataGen.generate(spark, "flat", 1500, specs, 0.0, 3)
    val rows = got.df.select("row_id", "rank").collect()
    assert(rows.length == 1500 && rows.forall(r => r.getInt(1) == r.getLong(0) + 1))
    assertSameAsOracle(got, GeneratorOracle.generate(spark, "flat", 1500, specs, 0.0, 3))
  }

  test("driver ranks equal the window's on NaN, infinities, signed zeros and ties") {
    import spark.implicits._
    val nan = java.lang.Double.longBitsToDouble(0x7ff0000000000abcL) // not the canonical NaN
    val scores = Array(0.0, -0.0, Double.NaN, 1.5, Double.NegativeInfinity, -0.0, nan, 1.5,
      Double.PositiveInfinity, -2.0, 0.0, Double.MinPositiveValue, -Double.MinPositiveValue, Double.NaN)
    val window = Ranker.byScore(scores.toSeq.zipWithIndex.map { case (s, i) => (i.toLong, s) }.toDF("id", "s"), "s", "id")
      .orderBy("id").select("rank").collect().map(_.getInt(0)).toSeq
    assert(BiasDataGen.ranks(scores).toSeq == window)
    assert(BiasDataGen.ranks(Array.empty).isEmpty)
  }

  test("RowDraw.score equals the drawn row's score bit for bit on ids 0 to 10000") {
    import BiasDataGen.AttrSpec
    val tieHeavy = Seq(AttrSpec("a", 3, weight = -0.5), AttrSpec("b", 2, latentCorr = 0.3))
    for ((name, specs, noise, seed) <- Seq(
      ("compas", BiasDataGen.compasSpecs(16), 0.10, 42L),
      ("german", BiasDataGen.germanSpecs(20), 0.10, 11L),
      ("student", BiasDataGen.studentSpecs(33), 0.15, 7L),
      ("ties", tieHeavy, 0.0, 4L),
    )) {
      val draw = new BiasDataGen.RowDraw(specs, noise, seed)
      val bits = java.lang.Double.doubleToRawLongBits _
      val firstDiff = (0L to 10000L).find(id => bits(draw.score(id)) != bits(draw(id, 0).getDouble(specs.length + 1)))
      assert(firstDiff.isEmpty, s"$name: row_id ${firstDiff.getOrElse(-1L)}")
    }
  }

  test("property: ranks equal a comparator sort on ties, NaN bit patterns, signed zeros and infinities") {
    val nans = Seq(0x7ff8000000000000L, 0x7ff0000000000abcL, 0xfff8000000000001L, 0x7fffffffffffffffL)
      .map(java.lang.Double.longBitsToDouble)
    val special = nans ++ Seq(0.0, -0.0, Double.PositiveInfinity, Double.NegativeInfinity,
      Double.MinPositiveValue, -Double.MinPositiveValue, Double.MaxValue, -Double.MaxValue)
    // a small pool of values per draw, so ties are frequent
    val score = Gen.frequency(3 -> Gen.oneOf(special), 4 -> Gen.choose(-3, 3).map(_ * 0.5), 1 -> Gen.double)
    val scores = Gen.choose(0, 300).flatMap(n => Gen.listOfN(n, score)).map(_.toArray)
    var tied = 0 // scores that share their value with an earlier one, over all samples
    for (seed <- 0L until 200L) {
      val s = scores.pureApply(Gen.Parameters.default, Seed(seed))
      assert(BiasDataGen.ranks(s).toSeq == Ranker.sortWithRanks(s).toSeq, s"seed=$seed")
      // doubleToLongBits folds the NaNs, + 0.0 folds −0.0 into 0.0
      tied += s.length - s.map(d => java.lang.Double.doubleToLongBits(d + 0.0)).distinct.length
    }
    assert(tied > 1000, s"only $tied tied scores")
  }

  test("generate rejects a row count outside [0, Int.MaxValue] before any Spark job") {
    for (n <- Seq(-1L, Int.MaxValue + 1L, Long.MaxValue)) {
      val (e, jobs) = TestListenerBus.jobsDuring(spark.sparkContext)(intercept[IllegalArgumentException](
        BiasDataGen.generate(spark, "bad", n, Seq(BiasDataGen.AttrSpec("x", 2)), 0.1, 1)))
      assert(e.getMessage.contains(n.toString), e.getMessage)
      assert(jobs == 0, s"n = $n")
    }
    assert(BiasDataGen.generate(spark, "empty", 0, Seq(BiasDataGen.AttrSpec("x", 2)), 0.1, 1).df.count() == 0)
  }

  test("set-up keeps the range's partitions and runs 4 Spark jobs: no global window") {
    val (ds, jobs) = TestListenerBus.jobsDuring(spark.sparkContext) {
      val ds = BiasDataGen.germanLike(spark)
      ds.df.count()
      Encoding.index(ds.df, ds.attrCols, ds.rankCol)
      ds
    }
    // one collect of the scores; count's exchange and result under
    // adaptive execution; one index job
    assert(jobs == 4)
    assert(ds.df.rdd.getNumPartitions > 1)
  }
}
