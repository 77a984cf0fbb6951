package repro.shapley

import scala.util.Random

/** Test oracles for the Shapley engine: the permutation-sampling
  * approximation of Štrumbelj & Kononenko [35] for an arbitrary black-box
  * model, which cross-checks [[Shapley.linearExact]], and the predictions
  * of a fitted surrogate, the `f` both are checked on.
  */
object ShapleyOracle {

  /** Monte-Carlo Shapley values of a black-box `f` at tuple `t`. Satisfies
    * the efficiency axiom `Σ_a φ_a(t) = f(t) − E[f]` in expectation.
    *
    * @param f          model over encoded tuples
    * @param t          the explained tuple
    * @param background encoded dataset tuples (the empirical background
    *                   distribution)
    * @param samples    number of (permutation, background-tuple) draws
    * @param seed       RNG seed — deterministic for tests
    * @throws IllegalArgumentException if `background` is empty or holds a
    *         tuple of another width than `t`, or `samples < 1`
    */
  def monteCarlo(
      f: Array[Int] => Double,
      t: Array[Int],
      background: Array[Array[Int]],
      samples: Int,
      seed: Long,
  ): Array[Double] = {
    require(background.nonEmpty, "background distribution must be non-empty")
    require(samples >= 1, s"samples must be at least 1, got $samples")
    require(background.forall(_.length == t.length), s"every background tuple must have width ${t.length}")
    val m = t.length
    val rnd = new Random(seed)
    val phi = new Array[Double](m)
    val order = Array.range(0, m)
    var s = 0
    while (s < samples) {
      // Fisher–Yates shuffle of the attribute order
      var i = m - 1
      while (i > 0) {
        val j = rnd.nextInt(i + 1)
        val tmp = order(i); order(i) = order(j); order(j) = tmp
        i -= 1
      }
      val z = background(rnd.nextInt(background.length))
      // hybrid starts as the background tuple; walk the permutation,
      // switching attributes to t's values one at a time
      val hybrid = z.clone()
      var prev = f(hybrid)
      var pos = 0
      while (pos < m) {
        val a = order(pos)
        hybrid(a) = t(a)
        val cur = f(hybrid)
        phi(a) += cur - prev
        prev = cur
        pos += 1
      }
      s += 1
    }
    var a = 0
    while (a < m) { phi(a) /= samples; a += 1 }
    phi
  }

  /** Predictions of a fitted [[RidgeRegression.Model]]. */
  implicit final class Predictions(private val model: RidgeRegression.Model) extends AnyVal {
    import model.{attrCols, featureMeans, offsets, weights}

    /** Predicted label for an encoded tuple (value index per attribute). */
    def predict(row: Array[Int]): Double =
      attrCols.indices.foldLeft(weights(offsets.last))((y, a) => y + weights(offsets(a) + row(a)))

    /** Mean prediction over the training (background) distribution. */
    def meanPrediction: Double =
      (0 until offsets.last).foldLeft(weights(offsets.last))((y, j) => y + weights(j) * featureMeans(j))
  }
}
