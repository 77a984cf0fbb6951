package repro.shapley

import repro.{Oracle, SparkSpec}
import repro.data.{BiasDataGen, Encoding}
import ShapleyOracle.Predictions

class LinalgSpec extends org.scalatest.funsuite.AnyFunSuite {

  test("choleskySolve solves a known SPD system") {
    val a = Array(Array(4.0, 2.0), Array(2.0, 3.0))
    val b = Array(10.0, 8.0)
    val x = Linalg.choleskySolve(a, b)
    assert(math.abs(x(0) - 1.75) < 1e-9)
    assert(math.abs(x(1) - 1.5) < 1e-9)
  }

  test("choleskySolve handles the identity") {
    val a = Array.tabulate(5, 5)((i, j) => if (i == j) 1.0 else 0.0)
    val b = Array(1.0, 2.0, 3.0, 4.0, 5.0)
    assert(Linalg.choleskySolve(a, b).zip(b).forall { case (x, y) => math.abs(x - y) < 1e-12 })
  }

  test("choleskySolve leaves its inputs untouched") {
    val a = Array(Array(2.0, 0.0), Array(0.0, 2.0))
    val b = Array(2.0, 4.0)
    Linalg.choleskySolve(a, b)
    assert(a(0)(0) == 2.0 && b(0) == 2.0)
  }

  test("choleskySolve rejects an indefinite matrix") {
    val a = Array(Array(0.0, 1.0), Array(1.0, 0.0))
    intercept[IllegalArgumentException](Linalg.choleskySolve(a, Array(1.0, 1.0)))
  }

  test("residual is orthogonal to the column space (normal equations hold)") {
    val rnd = new scala.util.Random(3)
    val d = 6
    val m = Array.fill(8, d)(rnd.nextDouble())
    val a = Array.tabulate(d, d)((i, j) => m.map(r => r(i) * r(j)).sum + (if (i == j) 1e-9 else 0))
    val y = Array.fill(8)(rnd.nextDouble())
    val b = Array.tabulate(d)(i => m.zip(y).map { case (r, yy) => r(i) * yy }.sum)
    val x = Linalg.choleskySolve(a, b)
    // Aᵀ(Ax − b) ≈ 0 by construction of the solve
    val ax = Array.tabulate(d)(i => a(i).zip(x).map { case (v, xx) => v * xx }.sum)
    assert(ax.zip(b).forall { case (l, r) => math.abs(l - r) < 1e-6 })
  }
}

class RidgeRegressionSpec extends SparkSpec {

  private val attrs = Seq("a", "b", "c")

  /** Small synthetic: the encoded rows of an index, labelled by an exact
    * linear function of one-hot features, so the fit must interpolate.
    */
  private lazy val fixture = {
    val ds = BiasDataGen.generate(
      spark, "toy", 500,
      Seq(
        BiasDataGen.AttrSpec("a", 3, weight = 1.0),
        BiasDataGen.AttrSpec("b", 2, weight = -0.5),
        BiasDataGen.AttrSpec("c", 4),
      ),
      noise = 0.0, seed = 21)
    val ix = Encoding.index(ds.df, attrs, "rank")
    val labels = ix.rows.map(r => r(0) / 2.0 * 1.0 - r(1) * 0.5 + 3.0)
    (ix.rows, labels, ix.domainSizes)
  }

  private lazy val model = {
    val (rows, labels, domainSizes) = fixture
    RidgeRegression.fit(rows, labels, attrs, domainSizes)
  }

  test("fit recovers an exactly linear labeling (prediction error ~ 0)") {
    val (rows, labels, _) = fixture
    for ((r, y) <- rows.zip(labels).take(100)) {
      val pred = model.predict(r)
      assert(math.abs(pred - y) < 1e-4, s"row ${r.toSeq} pred=$pred")
    }
  }

  test("meanPrediction equals the label mean (intercept property)") {
    val (_, labels, _) = fixture
    assert(math.abs(model.meanPrediction - labels.sum / labels.length) < 1e-6)
  }

  test("feature means match the empirical one-hot frequencies") {
    val (rows, _, domainSizes) = fixture
    for (v <- 0 until domainSizes(0)) {
      val freq = rows.count(_(0) == v).toDouble / rows.length
      assert(math.abs(model.featureMeans(v) - freq) < 1e-9, s"a=$v")
    }
  }

  test("design-matrix moments validated against DuckDB") {
    val (rows, labels, domainSizes) = fixture
    val n = rows.length
    val table = spark
      .createDataFrame(rows.toSeq.zip(labels).map { case (r, y) => (r(0), r(1), r(2), y) })
      .toDF("a", "b", "c", "label")
    // featureMeans · n is the diagonal of XᵀX: each (attribute, value)'s one-hot count.
    val counts = for (a <- attrs.indices; v <- 0 until domainSizes(a)) yield {
      val c = model.featureMeans(model.offsets(a) + v) * n
      assert(math.abs(c - math.rint(c)) < 1e-6, s"${attrs(a)}=$v: $c")
      (attrs(a), v, math.rint(c).toLong)
    }
    Oracle.assertEquivalent(
      spark.createDataFrame(counts).toDF("attr", "v", "cnt"),
      attrs.map(a => s"SELECT '$a' AS attr, $a AS v, count(*) AS cnt FROM t GROUP BY $a").mkString(" UNION ALL "),
      "t" -> table,
    )
    Oracle.assertEquivalent(
      spark.createDataFrame(Seq(Tuple1(model.meanPrediction))).toDF("mean_label"),
      "SELECT avg(CAST(label AS DOUBLE)) AS mean_label FROM t",
      "t" -> table,
    )
  }

  test("fit on the rank label produces a usable surrogate of the ranker") {
    val ds = BiasDataGen.studentLike(spark, nAttrs = 10)
    val ix = Encoding.index(ds.df, ds.attrCols.take(10), "rank")
    val ranks = Array.tabulate(ix.size)(i => (i + 1).toDouble)
    val model = RidgeRegression.fit(ix.rows, ranks, ds.attrCols.take(10), ix.domainSizes)
    // Spearman-like sanity: predictions must correlate with rank.
    val preds = ix.rows.zip(ranks).map { case (r, rank) => (rank, model.predict(r)) }
    val n = preds.length.toDouble
    val mr = preds.map(_._1).sum / n
    val mp = preds.map(_._2).sum / n
    val cov = preds.map { case (r, p) => (r - mr) * (p - mp) }.sum
    val vr = math.sqrt(preds.map { case (r, _) => (r - mr) * (r - mr) }.sum)
    val vp = math.sqrt(preds.map { case (_, p) => (p - mp) * (p - mp) }.sum)
    val corr = cov / (vr * vp)
    assert(corr > 0.8, s"rank/prediction correlation too low: $corr")
  }

  test("fit rejects an empty training set") {
    val (_, _, domainSizes) = fixture
    intercept[Exception] {
      RidgeRegression.fit(Array.empty, Array.empty, attrs, domainSizes)
    }
  }

  test("fit rejects a label count other than the row count") {
    val (rows, labels, domainSizes) = fixture
    val e = intercept[IllegalArgumentException](RidgeRegression.fit(rows, labels.tail, attrs, domainSizes))
    assert(e.getMessage.contains(s"${labels.length - 1} labels for ${rows.length} rows"))
  }
}
