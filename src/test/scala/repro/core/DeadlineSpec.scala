package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** How much work a run does once its budget expires: none that counts.
  * The budget is made to expire inside a chosen `countWave` call, every
  * call of an unbudgeted run in turn, on Figure 1 with k ∈ [4,16].
  */
class DeadlineSpec extends AnyFunSuite {
  private val ix = RunningExample.index
  private val global = GlobalLowerBound(k => if (k < 10) 2.0 else 3.0)
  private val prop = ProportionalLowerBound(0.9, 16)

  private val detectors: Seq[(String, (PatternCounter, Budget) => DetectionResult)] = Seq(
    "ITERTD, global" -> ((c, b) => IterTD.run(c, global, 4, 4, 16, b)),
    "ITERTD, proportional" -> ((c, b) => IterTD.run(c, prop, 5, 4, 16, b)),
    "GLOBALBOUNDS" -> ((c, b) => GlobalBounds.run(c, global, 4, 4, 16, b)),
    "PROPBOUNDS" -> ((c, b) => PropBounds.run(c, 0.9, 5, 4, 16, b)),
  )

  test("no count starts after the budget expires, and a timed-out run covers exactly the k it completed") {
    for ((name, run) <- detectors) {
      val all = new ExpiringCounter(ix, expireAt = 0, Budget.unlimited)
      val unbudgeted = run(all, Budget.unlimited)
      assert(!unbudgeted.timedOut && all.calls > 0, name)
      for (n <- 1 to all.calls) {
        // A 1 ms deadline may pass before the n-th call begins (a cold JIT):
        // then the run is repeated with a doubled one.
        val attempt = Iterator.iterate(1L)(_ * 2).take(12).map { ms =>
          val budget = Budget.ofMillis(ms)
          val c = new ExpiringCounter(ix, n, budget)
          (c, run(c, budget))
        }.find { case (c, _) => c.calls >= n && !c.expiredBefore }
        assert(attempt.isDefined, s"$name, call $n: the deadline always passed before the call")
        val (c, r) = attempt.get
        assert(c.calls == n, s"$name: ${c.calls - n} calls started after the one the budget expired in ($n)")
        if (r.timedOut) {
          assert(r.resByK.keySet == (4 until 4 + r.resByK.size).toSet, s"$name, call $n: ${r.resByK.keySet}")
          for ((k, res) <- r.resByK) assert(res == unbudgeted.resByK(k), s"$name, call $n, k=$k")
        } else assert(r == unbudgeted, s"$name, call $n")
      }
    }
  }

  test("a budget of up to Long.MaxValue ms saturates: it never reads expired, and a run under it is the unbudgeted run") {
    // now + millis × 10⁶ would wrap into the past from Long.MaxValue / 10⁶ ms on
    for (ms <- Seq(Long.MaxValue, Long.MaxValue / 1000000L + 1, Long.MaxValue / 1000000L)) {
      val budget = Budget.ofMillis(ms)
      assert(!budget.expired, s"$ms ms")
      for ((name, run) <- detectors) {
        val r = run(new LocalPatternCounter(ix), budget)
        assert(!r.timedOut && r == run(new LocalPatternCounter(ix), Budget.unlimited), s"$name, $ms ms")
      }
    }
    for (ms <- Seq(-1L, Long.MinValue)) assert(Budget.ofMillis(ms).expired, s"$ms ms")
  }
}
