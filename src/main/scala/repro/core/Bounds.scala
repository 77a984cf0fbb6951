package repro.core

/** Lower-bound specification deciding when a pattern's top-k count is
  * biased. Mirrors the two problem definitions of the paper; both are
  * expressed through a per-(pattern, k) threshold so the top-down search
  * (Algorithm 1) is shared, exactly as the paper's baseline is.
  */
sealed trait BiasBound {

  /** Representation threshold for a pattern with dataset size `sD` in the
    * top-`k`; the pattern is biased iff its top-k count is strictly below.
    */
  def threshold(sD: Long, k: Int): Double

  /** Is a pattern with the given counts biased at position `k`? */
  final def biased(cnt: Long, sD: Long, k: Int): Boolean =
    cnt.toDouble < threshold(sD, k)

  /** The first k in `[from, until]` at which a pattern with the fixed
    * counts `cnt` and `sD` is biased, or `Int.MaxValue` if there is none.
    * Walks k; a bound with a closed form overrides it.
    */
  def nextBiasedK(cnt: Long, sD: Long, from: Int, until: Int): Int = {
    var k = from.toLong
    while (k <= until && !biased(cnt, sD, k.toInt)) k += 1
    if (k > until) Int.MaxValue else k.toInt
  }

  /** True iff some threshold is lower at `k` than at `k - 1`, so that a
    * biased pattern may recover without gaining a tuple. The incremental
    * engine relies on thresholds that do not fall, and searches afresh at
    * such a k.
    */
  def fallsAt(k: Int): Boolean = false
}

/** Problem 3.1: user-given bounds `L_k`, independent of the group size. */
final case class GlobalLowerBound(lk: Int => Double) extends BiasBound {
  override def threshold(sD: Long, k: Int): Double = lk(k)

  override def fallsAt(k: Int): Boolean = lk(k) < lk(k - 1)
}

object GlobalLowerBound {

  /** The paper's default step bounds: 10 for k∈[10,20), 20 for [20,30),
    * 30 for [30,40), 40 for k ≥ 40 (Section VI-A).
    */
  val paperDefault: GlobalLowerBound =
    GlobalLowerBound(k => math.min(40, (k / 10) * 10).toDouble)
}

/** Problem 3.2: proportional bound `α · s_D(p) · k / |D|`. */
final case class ProportionalLowerBound(alpha: Double, dSize: Long) extends BiasBound {
  require(alpha > 0 && alpha < Double.PositiveInfinity, s"α must be positive and finite, got $alpha")
  require(dSize > 0, "dataset must be non-empty")

  override def threshold(sD: Long, k: Int): Double =
    alpha * sD * k / dSize

  /** `k̃` (Section IV-C): the minimal k at which a pattern with a fixed
    * top-k count `cnt` becomes biased. Computed from the closed form and
    * then adjusted so it is exactly consistent with [[biased]] under
    * floating-point rounding. Returns `Int.MaxValue` when no such k fits
    * in an Int (e.g. `cnt` large enough relative to `sD`).
    */
  def kTilde(cnt: Long, sD: Long): Int = {
    val base = cnt * dSize / (alpha * sD)
    if (base >= Int.MaxValue - 2) return Int.MaxValue
    var k = math.max(1, math.floor(base).toInt)
    // walk to the exact boundary of the predicate
    while (!biased(cnt, sD, k) && k < Int.MaxValue - 1) k += 1
    while (k > 1 && biased(cnt, sD, k - 1)) k -= 1
    k
  }

  /** The threshold grows with k, so this is `k̃` clamped to `from`. */
  override def nextBiasedK(cnt: Long, sD: Long, from: Int, until: Int): Int = {
    val k = math.max(from, kTilde(cnt, sD))
    if (k > until) Int.MaxValue else k
  }
}

/** Cooperative wall-clock budget for the searches; checked once per BFS
  * wave and, in the incremental engine, once per k, so a timed-out
  * run returns a partial result quickly (the paper uses a 10-minute
  * timeout in Figures 4–5).
  */
final class Budget(deadlineNanos: Long) {
  def expired: Boolean = System.nanoTime() > deadlineNanos
}

object Budget {
  /** No deadline. */
  val unlimited: Budget = new Budget(Long.MaxValue)

  /** Budget expiring `millis` from now; already expired if `millis` is
    * negative. A deadline past the clock's range is none: it saturates at
    * `Long.MaxValue`, where `now + millis × 10⁶` would wrap into the past.
    */
  def ofMillis(millis: Long): Budget = {
    val now = System.nanoTime()
    val nanos = math.max(math.min(millis, Long.MaxValue / 1000000L), -1L) * 1000000L
    val deadline = now + nanos
    new Budget(if (nanos > 0 && deadline < now) Long.MaxValue else deadline)
  }
}
