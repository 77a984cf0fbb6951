package repro.shapley

import scala.util.Random

/** Shapley-value attribution of attributes to a model's output
  * (Section V). Two engines:
  *
  *  - [[linearExact]] — closed form for the linear surrogate `M_R`
  *    under the feature-independence assumption:
  *    `φ_a(t) = Σ_{j ∈ onehot(a)} w_j (x_j − E[x_j])`;
  *  - [[monteCarlo]] — the permutation-sampling approximation of
  *    Štrumbelj & Kononenko [35] for an arbitrary black-box model,
  *    drawing background tuples from the dataset.
  *
  * Both satisfy the efficiency axiom `Σ_a φ_a(t) = f(t) − E[f]`
  * (exactly for the linear engine, in expectation for the sampler);
  * the tests assert this and the convergence of the sampler to the
  * exact values on linear models.
  */
object Shapley {

  /** Exact per-attribute Shapley values of `model` at encoded tuple `t`. */
  def linearExact(model: RidgeRegression.Model, t: Array[Int]): Array[Double] = {
    val m = model.attrCols.length
    val out = new Array[Double](m)
    var a = 0
    while (a < m) {
      val off = model.offsets(a)
      var phi = model.weights(off + t(a))
      var v = 0
      while (v < model.domainSizes(a)) {
        phi -= model.weights(off + v) * model.featureMeans(off + v)
        v += 1
      }
      out(a) = phi
      a += 1
    }
    out
  }

  /** Monte-Carlo Shapley values of a black-box `f` at tuple `t`.
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
}
