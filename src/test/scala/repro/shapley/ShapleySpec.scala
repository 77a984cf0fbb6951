package repro.shapley

import repro.SparkSpec
import repro.data.{BiasDataGen, Encoding}
import ShapleyOracle.Predictions

class ShapleySpec extends SparkSpec {

  private lazy val fixture = {
    val ds = BiasDataGen.generate(
      spark, "toy", 400,
      Seq(
        BiasDataGen.AttrSpec("x", 3, weight = 2.0),
        BiasDataGen.AttrSpec("y", 2, weight = 1.0),
        BiasDataGen.AttrSpec("z", 3),
      ),
      noise = 0.05, seed = 33)
    val attrs = Seq("x", "y", "z")
    val ix = Encoding.index(ds.df, attrs, "rank")
    val model = RidgeRegression.fit(ix.rows, Array.tabulate(ix.size)(i => (i + 1).toDouble), attrs, ix.domainSizes)
    (model, ix.rows)
  }

  test("efficiency axiom: Σφ_a = f(t) − E[f] for the exact engine") {
    val (model, rows) = fixture
    for (t <- rows.take(50)) {
      val phi = Shapley.linearExact(model, t)
      val lhs = phi.sum
      val rhs = model.predict(t) - model.meanPrediction
      assert(math.abs(lhs - rhs) < 1e-8, s"t=${t.toSeq} lhs=$lhs rhs=$rhs")
    }
  }

  test("zero-weight surrogate gives zero Shapley values") {
    val (model, rows) = fixture
    val zero = model.copy(weights = model.weights.map(_ => 0.0))
    val phi = Shapley.linearExact(zero, rows.head)
    assert(phi.forall(_ == 0.0))
  }

  test("the scoring attribute dominates the exact Shapley attribution") {
    val (model, rows) = fixture
    // Aggregate |φ| over tuples: x (weight 2) must dominate z (weight 0).
    val sums = new Array[Double](3)
    for (t <- rows) {
      val phi = Shapley.linearExact(model, t)
      for (a <- 0 until 3) sums(a) += math.abs(phi(a))
    }
    assert(sums(0) > sums(1), s"x vs y: ${sums.toSeq}")
    assert(sums(1) > sums(2), s"y vs z: ${sums.toSeq}")
  }

  test("Monte-Carlo engine converges to the exact values on a linear model") {
    val (model, rows) = fixture
    val background = rows
    val f: Array[Int] => Double = model.predict
    for (t <- rows.take(5)) {
      val exact = Shapley.linearExact(model, t)
      val mc = ShapleyOracle.monteCarlo(f, t, background, samples = 4000, seed = 7)
      val scale = math.max(1e-9, exact.map(math.abs).max)
      for (a <- exact.indices)
        assert(math.abs(mc(a) - exact(a)) / scale < 0.15,
          s"attr $a: mc=${mc(a)} exact=${exact(a)}")
    }
  }

  test("Monte-Carlo is deterministic in the seed") {
    val (model, rows) = fixture
    val f: Array[Int] => Double = model.predict
    val a = ShapleyOracle.monteCarlo(f, rows.head, rows, 200, seed = 42)
    val b = ShapleyOracle.monteCarlo(f, rows.head, rows, 200, seed = 42)
    assert(a.toSeq == b.toSeq)
  }

  test("Monte-Carlo efficiency holds in expectation") {
    val (model, rows) = fixture
    val f: Array[Int] => Double = model.predict
    val t = rows.head
    val phi = ShapleyOracle.monteCarlo(f, t, rows, 4000, seed = 11)
    // Σφ = f(t) − E_z[f(z)] where z is the sampled background
    val bgMean = rows.map(f).sum / rows.length
    assert(math.abs(phi.sum - (f(t) - bgMean)) < 0.5,
      s"sum=${phi.sum} expected≈${f(t) - bgMean}")
  }

  test("Monte-Carlo works for a non-linear black box") {
    val (_, rows) = fixture
    // XOR-ish interaction: not representable linearly.
    val f: Array[Int] => Double = t => if ((t(0) + t(1)) % 2 == 0) 1.0 else 0.0
    val t = rows.find(t => (t(0) + t(1)) % 2 == 0).get
    val phi = ShapleyOracle.monteCarlo(f, t, rows, 2000, seed = 5)
    val bgMean = rows.map(f).sum / rows.length
    assert(math.abs(phi.sum - (f(t) - bgMean)) < 0.1)
    // z never matters for f
    assert(math.abs(phi(2)) < 0.05)
  }

  test("monteCarlo rejects an empty background") {
    val (model, rows) = fixture
    intercept[IllegalArgumentException] {
      ShapleyOracle.monteCarlo(model.predict, rows.head, Array.empty, 10, 1)
    }
  }

  test("monteCarlo rejects fewer than one sample") {
    val (model, rows) = fixture
    for (samples <- Seq(0, -1)) {
      val e = intercept[IllegalArgumentException](ShapleyOracle.monteCarlo(model.predict, rows.head, rows, samples, 1))
      assert(e.getMessage.contains(s"samples must be at least 1, got $samples"))
    }
  }

  test("monteCarlo rejects a background tuple of another width") {
    val (model, rows) = fixture
    for (bad <- Seq(rows.head.take(2), rows.head :+ 0)) {
      val e = intercept[IllegalArgumentException](ShapleyOracle.monteCarlo(model.predict, rows.head, rows :+ bad, 10, 1))
      assert(e.getMessage.contains("every background tuple must have width 3"))
    }
  }
}
