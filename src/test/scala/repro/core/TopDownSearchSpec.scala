package repro.core

import org.scalatest.funsuite.AnyFunSuite
import PatternLattice._

class TopDownSearchSpec extends AnyFunSuite {
  import RunningExample.p
  import MostGeneralFixture.dres
  private val ix = RunningExample.index
  private val counter = new LocalPatternCounter(ix)

  /** `Res[k]` of Algorithm 1 at one k: a single-k ITERTD run. */
  private def res(c: PatternCounter, bound: BiasBound, tauS: Long, k: Int): Set[Pattern] =
    IterTD.run(c, bound, tauS, k, k).resByK(k)

  // ---- Example 4.6 (global bounds, τ_s = 4, L_4 = L_5 = 2) ----

  private val g2 = GlobalLowerBound(_ => 2.0)

  test("Example 4.6: Res[4] for global bounds") {
    val got = res(counter, g2, tauS = 4, k = 4)
    val expected = Set(
      p(1 -> 0),           // School=GP
      p(2 -> 1),           // Address=U
      p(3 -> 1),           // Failures=1
      p(3 -> 2),           // Failures=2
      p(0 -> 0, 1 -> 1),   // Gender=F, School=MS
      p(0 -> 0, 2 -> 0),   // Gender=F, Address=R
    )
    assert(got == expected)
  }

  test("Example 4.6: DRes[4] contains the four patterns named in the paper") {
    val named = Set(
      p(0 -> 0, 2 -> 1), // Gender=F, Address=U
      p(0 -> 1, 2 -> 1), // Gender=M, Address=U
      p(0 -> 0, 3 -> 1), // Gender=F, Failures=1
      p(2 -> 0, 3 -> 1), // Address=R, Failures=1
    )
    assert(named.subsetOf(dres(counter, g2, tauS = 4, k = 4)))
  }

  test("Example 4.6: DRes[4] exact contents") {
    val expected = Set(
      p(0 -> 0, 1 -> 0), p(0 -> 1, 1 -> 0), // {G,S=GP} pair under School=GP
      p(0 -> 0, 2 -> 1), p(0 -> 1, 2 -> 1),
      p(0 -> 0, 3 -> 1), p(0 -> 1, 3 -> 1),
      p(1 -> 1, 3 -> 1), p(2 -> 0, 3 -> 1),
    )
    assert(dres(counter, g2, tauS = 4, k = 4) == expected)
  }

  test("Res and DRes are disjoint; DRes members are dominated by Res members") {
    val r4 = res(counter, g2, tauS = 4, k = 4)
    val dr = dres(counter, g2, tauS = 4, k = 4)
    assert(r4.intersect(dr).isEmpty)
    assert(dr.forall(d => r4.exists(_.strictlySubsumes(d))))
    assert(r4.forall(r => !r4.exists(_.strictlySubsumes(r))))
  }

  // ---- Example 4.9 (proportional, τ_s = 5, α = 0.9) ----

  private def prop09 = ProportionalLowerBound(0.9, ix.size.toLong)

  test("Example 4.9: Res[4] for proportional bounds is exactly {School=GP},{Address=U},{Failures=1}") {
    assert(res(counter, prop09, tauS = 5, k = 4) == Set(p(1 -> 0), p(2 -> 1), p(3 -> 1)))
  }

  test("Example 4.9: Res[5] adds {Gender=F}") {
    assert(res(counter, prop09, tauS = 5, k = 5) == Set(p(0 -> 0), p(1 -> 0), p(2 -> 1), p(3 -> 1)))
  }

  test("Example 4.7: k̃ of {Gender=F} with count 2 is 5") {
    assert(prop09.kTilde(cnt = 2, sD = 8) == 5)
  }

  test("Example 4.9: k̃ values named in the paper") {
    assert(prop09.kTilde(2, 8) == 5) // {Gender=M}, {Gender=F}
    assert(prop09.kTilde(3, 8) == 7) // {School=MS}, {Address=R}
    assert(prop09.kTilde(3, 6) == 9) // {School=MS, Address=R}
  }

  test("kTilde is consistent with the biased predicate") {
    for (alpha <- Seq(0.5, 0.8, 0.9, 1.0, 1.3); sD <- 1L to 16L; cnt <- 0L to sD) {
      val b = ProportionalLowerBound(alpha, 16)
      val kt = b.kTilde(cnt, sD)
      if (kt != Int.MaxValue) {
        assert(b.biased(cnt, sD, kt), s"not biased at kTilde: a=$alpha sD=$sD cnt=$cnt kt=$kt")
        if (kt > 1) assert(!b.biased(cnt, sD, kt - 1), s"already biased before kTilde: a=$alpha sD=$sD cnt=$cnt kt=$kt")
      }
    }
  }

  test("nextBiasedK is the first biased k in [from, until], for both bound types") {
    val bounds = Seq(0.5, 0.9, 1.3).map(ProportionalLowerBound(_, 16)) ++ Seq(
      GlobalLowerBound(k => math.min(8, (k / 4) * 2).toDouble), // steps of 2
      GlobalLowerBound(k => if (k % 7 < 3) 5.0 else 2.0),      // rises and falls
    )
    var pastKTilde = 0
    for (b <- bounds; sD <- 1L to 16L; cnt <- 0L to sD; from <- 1 to 24; until <- Seq(from - 1, from, from + 3, 24, 40)) {
      val k = b.nextBiasedK(cnt, sD, from, until)
      val clue = s"$b sD=$sD cnt=$cnt from=$from until=$until k=$k"
      if (k == Int.MaxValue) assert((from to until).forall(!b.biased(cnt, sD, _)), clue)
      else {
        assert(from <= k && k <= until && b.biased(cnt, sD, k), clue)
        assert((from until k).forall(!b.biased(cnt, sD, _)), clue)
      }
      b match {
        case pb: ProportionalLowerBound if from > pb.kTilde(cnt, sD) && k == from => pastKTilde += 1
        case _ => ()
      }
    }
    assert(pastKTilde > 0)
    assert(GlobalLowerBound(_ => 3.0).nextBiasedK(2, 4, 5, Int.MaxValue) == 5)
    assert(GlobalLowerBound(_ => 3.0).nextBiasedK(3, 4, Int.MaxValue - 2, Int.MaxValue) == Int.MaxValue)
    assert(ProportionalLowerBound(0.5, 16).nextBiasedK(16, 16, 1, Int.MaxValue) == 33)
  }

  test("proportional bound rejects α that is not positive and finite") {
    // α = 0 with cnt = 0 would send kTilde walking toward Int.MaxValue.
    for (alpha <- Seq(0.0, -1.0, Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity))
      intercept[IllegalArgumentException](ProportionalLowerBound(alpha, 16))
  }

  // ---- engine behaviour ----

  test("τ_s above dataset size yields an empty result") {
    assert(res(counter, g2, tauS = 17, k = 4).isEmpty && dres(counter, g2, tauS = 17, k = 4).isEmpty)
  }

  test("bound 0 yields no biased patterns") {
    assert(res(counter, GlobalLowerBound(_ => 0.0), tauS = 1, k = 4).isEmpty)
  }

  test("huge bound reports exactly the most general level-1 patterns") {
    val got = res(counter, GlobalLowerBound(_ => 100.0), tauS = 1, k = 4)
    // every level-1 pattern is biased, so Res is all of them, nothing deeper
    assert(got == Pattern.root(4).searchTreeChildren(ix.domainSizes).toSet)
    assert(dres(counter, GlobalLowerBound(_ => 100.0), tauS = 1, k = 4).isEmpty)
  }

  test("examined counts the counted patterns (level-1 at minimum)") {
    val run = IterTD.run(counter, GlobalLowerBound(_ => 100.0), tauS = 1, kMin = 4, kMax = 4)
    assert(run.examined == 9) // only level 1 counted, all biased
  }

  test("single-k search rejects τ_s < 1 and k outside [1, |D|]") {
    for (tauS <- Seq(0L, -3L)) {
      val e = intercept[IllegalArgumentException](res(counter, g2, tauS, k = 4))
      assert(e.getMessage.contains(s"τ_s must be at least 1, got $tauS"))
    }
    for (k <- Seq(0, -1, 17)) {
      val e = intercept[IllegalArgumentException](res(counter, g2, tauS = 4, k = k))
      assert(e.getMessage.contains(s"bad range [$k,$k]"))
    }
  }

  test("expired budget returns timedOut") {
    val run = IterTD.run(counter, g2, tauS = 1, kMin = 4, kMax = 4, budget = Budget.ofMillis(-1))
    assert(run.timedOut)
  }

  test("single-k search vs brute force on random data (global bounds)") {
    for (seed <- 0 until 15) {
      val rix = RandomData.index(seed, n = 40, m = 4)
      val c = new LocalPatternCounter(rix)
      val bound = GlobalLowerBound(_ => 2.0 + seed % 3)
      val tauS = 3 + seed % 4
      for (k <- Seq(5, 11, 20)) {
        val expect = BruteForce.run(rix, bound, tauS, k, k)(k)
        val got = res(c, bound, tauS, k)
        assert(got == expect, s"seed=$seed k=$k")
      }
    }
  }

  test("single-k search vs brute force on random data (proportional bounds)") {
    for (seed <- 0 until 15) {
      val rix = RandomData.index(seed + 100, n = 40, m = 4)
      val c = new LocalPatternCounter(rix)
      val bound = ProportionalLowerBound(0.6 + 0.1 * (seed % 5), rix.size.toLong)
      val tauS = 3 + seed % 4
      for (k <- Seq(5, 11, 20)) {
        val expect = BruteForce.run(rix, bound, tauS, k, k)(k)
        val got = res(c, bound, tauS, k)
        assert(got == expect, s"seed=$seed k=$k")
      }
    }
  }
}
