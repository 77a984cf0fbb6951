package repro.core

import org.scalatest.funsuite.AnyFunSuite

class IterTDSpec extends AnyFunSuite {
  import RunningExample.p
  private val ix = RunningExample.index
  private val counter = new LocalPatternCounter(ix)

  test("running example, global bounds over k ∈ [4,5]") {
    val res = IterTD.run(counter, GlobalLowerBound(_ => 2.0), tauS = 4, kMin = 4, kMax = 5)
    assert(!res.timedOut)
    assert(res.resByK.keySet == Set(4, 5))
    assert(res.resByK(4) == Set(
      p(1 -> 0), p(2 -> 1), p(3 -> 1), p(3 -> 2), p(0 -> 0, 1 -> 1), p(0 -> 0, 2 -> 0)))
    assert(res.resByK(5) == Set(
      p(1 -> 0), p(3 -> 2), p(0 -> 0, 1 -> 1), p(0 -> 0, 2 -> 0),
      p(0 -> 0, 2 -> 1), p(0 -> 1, 2 -> 1), p(0 -> 0, 3 -> 1), p(2 -> 0, 3 -> 1),
      p(2 -> 1, 3 -> 1)))
  }

  test("running example, proportional bounds over k ∈ [4,5] (Example 4.9)") {
    val res = IterTD.run(counter, ProportionalLowerBound(0.9, 16), tauS = 5, kMin = 4, kMax = 5)
    assert(res.resByK(4) == Set(p(1 -> 0), p(2 -> 1), p(3 -> 1)))
    assert(res.resByK(5) == Set(p(0 -> 0), p(1 -> 0), p(2 -> 1), p(3 -> 1)))
  }

  test("examined accumulates across k") {
    val one = IterTD.run(counter, GlobalLowerBound(_ => 2.0), 4, 4, 4)
    val two = IterTD.run(counter, GlobalLowerBound(_ => 2.0), 4, 4, 5)
    assert(two.examined > one.examined)
  }

  test("rejects an invalid k range") {
    intercept[IllegalArgumentException](IterTD.run(counter, GlobalLowerBound(_ => 2.0), 4, 0, 5))
    intercept[IllegalArgumentException](IterTD.run(counter, GlobalLowerBound(_ => 2.0), 4, 5, 4))
    intercept[IllegalArgumentException](IterTD.run(counter, GlobalLowerBound(_ => 2.0), 4, 5, 17))
  }

  test("rejects τ_s < 1") {
    intercept[IllegalArgumentException](IterTD.run(counter, GlobalLowerBound(_ => 2.0), 0, 4, 5))
    intercept[IllegalArgumentException](IterTD.run(counter, GlobalLowerBound(_ => 2.0), -3, 4, 5))
  }

  test("timed-out run reports a prefix of the range") {
    val res = IterTD.run(counter, GlobalLowerBound(_ => 2.0), 4, 4, 10, Budget.ofMillis(-1))
    assert(res.timedOut && res.resByK.isEmpty)
  }

  for (seed <- 0 until 12)
    test(s"matches brute force over a k range, global bounds (seed $seed)") {
      val rix = RandomData.index(seed, n = 35, m = 4)
      val c = new LocalPatternCounter(rix)
      val bound = RandomData.stepBound(seed, 20)
      val tauS = 3 + seed % 3
      val got = IterTD.run(c, bound, tauS, 3, 20)
      val expect = BruteForce.run(rix, bound, tauS, 3, 20)
      assert(got.resByK == expect, s"seed=$seed")
    }

  for (seed <- 0 until 12)
    test(s"matches brute force over a k range, proportional bounds (seed $seed)") {
      val rix = RandomData.index(seed + 50, n = 35, m = 4)
      val c = new LocalPatternCounter(rix)
      val bound = ProportionalLowerBound(0.55 + 0.1 * (seed % 6), rix.size.toLong)
      val tauS = 3 + seed % 3
      val got = IterTD.run(c, bound, tauS, 3, 20)
      val expect = BruteForce.run(rix, bound, tauS, 3, 20)
      assert(got.resByK == expect, s"seed=$seed")
    }

  test("IterTD ≡ GlobalBounds ≡ BruteForce above the parallel threshold, repeatably") {
    val rix = RandomData.index(seed = 900, n = 20000, m = 6, maxCard = 4, minCard = 4)
    val bound = GlobalLowerBound(k => (k / 40).toDouble) // steps at k = 1040
    def run(algo: PatternCounter => DetectionResult) = {
      val c = new BatchLogCounter(new LocalPatternCounter(rix))
      val res = algo(c)
      assert(c.maxBatch * KernelBatches.words(rix) >= DatasetIndex.ParallelWork)
      res
    }
    val iter = Seq.fill(2)(run(IterTD.run(_, bound, 200, 1036, 1044)))
    val glob = Seq.fill(2)(run(GlobalBounds.run(_, bound, 200, 1036, 1044)))
    val expect = BruteForce.run(rix, bound, 200, 1036, 1044)
    assert(expect.values.exists(_.nonEmpty))
    for (r <- iter ++ glob) assert(r.resByK == expect)
    assert(iter(0).examined == iter(1).examined && glob(0).examined == glob(1).examined)
  }
}
