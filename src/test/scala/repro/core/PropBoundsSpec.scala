package repro.core

import org.scalatest.funsuite.AnyFunSuite

class PropBoundsSpec extends AnyFunSuite {
  import RunningExample.p
  private val ix = RunningExample.index
  private val counter = new LocalPatternCounter(ix)

  test("Example 4.9: Res[4] = {School=GP},{Address=U},{Failures=1}") {
    val res = PropBounds.run(counter, alpha = 0.9, tauS = 5, kMin = 4, kMax = 5)
    assert(res.resByK(4) == Set(p(1 -> 0), p(2 -> 1), p(3 -> 1)))
  }

  test("Example 4.9: Res[5] gains {Gender=F} via its k̃ = 5 entry") {
    val res = PropBounds.run(counter, alpha = 0.9, tauS = 5, kMin = 4, kMax = 5)
    assert(res.resByK(5) == Set(p(0 -> 0), p(1 -> 0), p(2 -> 1), p(3 -> 1)))
  }

  test("single-k run equals the plain top-down search") {
    val got = PropBounds.run(counter, 0.9, 5, 4, 4).resByK(4)
    val b = IterTD.run(counter, ProportionalLowerBound(0.9, 16), 5, 4, 4).resByK(4)
    assert(got == b)
  }

  test("full range on the running example matches brute force") {
    for (alpha <- Seq(0.5, 0.8, 0.9, 1.0)) {
      val got = PropBounds.run(counter, alpha, tauS = 4, kMin = 2, kMax = 16)
      val expect = BruteForce.run(ix, ProportionalLowerBound(alpha, 16), 4, 2, 16)
      assert(got.resByK == expect, s"alpha=$alpha")
    }
  }

  test("timed-out run flags timedOut") {
    val res = PropBounds.run(counter, 0.9, 4, 4, 10, Budget.ofMillis(-1))
    assert(res.timedOut)
  }

  test("examined is below ITERTD's over a long range") {
    val alpha = 0.8
    val base = IterTD.run(counter, ProportionalLowerBound(alpha, 16), tauS = 4, kMin = 2, kMax = 16)
    val opt  = PropBounds.run(counter, alpha, tauS = 4, kMin = 2, kMax = 16)
    assert(opt.resByK == base.resByK)
    assert(opt.examined < base.examined,
      s"expected fewer examined patterns: opt=${opt.examined} base=${base.examined}")
  }

  for (seed <- 0 until 25)
    test(s"equivalent to ITERTD on random data (seed $seed)") {
      val rix = RandomData.index(seed, n = 40, m = 4)
      val c = new LocalPatternCounter(rix)
      val alpha = 0.5 + 0.1 * (seed % 7)
      val tauS = 3 + seed % 4
      val got  = PropBounds.run(c, alpha, tauS, 2, 35)
      val base = IterTD.run(c, ProportionalLowerBound(alpha, rix.size.toLong), tauS, 2, 35)
      assert(got.resByK == base.resByK, s"seed=$seed alpha=$alpha tauS=$tauS")
    }

  for (seed <- 0 until 8)
    test(s"equivalent to ITERTD on wider random data (5 attrs, seed $seed)") {
      val rix = RandomData.index(seed + 500, n = 60, m = 5)
      val c = new LocalPatternCounter(rix)
      val alpha = 0.6 + 0.1 * (seed % 5)
      val got  = PropBounds.run(c, alpha, 4, 2, 50)
      val base = IterTD.run(c, ProportionalLowerBound(alpha, rix.size.toLong), 4, 2, 50)
      assert(got.resByK == base.resByK, s"seed=$seed alpha=$alpha")
    }

  for (seed <- 0 until 12)
    test(s"equivalent to ITERTD on random data with domains up to 6 (seed $seed)") {
      val rix = RandomData.index(seed + 700, n = 80, m = 4, maxCard = 6)
      val c = new LocalPatternCounter(rix)
      val alpha = 0.5 + 0.1 * (seed % 6)
      val tauS = 2 + seed % 3
      val got  = PropBounds.run(c, alpha, tauS, 2, 60)
      val base = IterTD.run(c, ProportionalLowerBound(alpha, rix.size.toLong), tauS, 2, 60)
      assert(got.resByK == base.resByK, s"seed=$seed alpha=$alpha tauS=$tauS")
    }

  test("running example, k ∈ [4,16]: exact work and Res[k] for PROPBOUNDS and ITERTD") {
    val bound = ProportionalLowerBound(0.9, 16)
    val expect = BruteForce.run(ix, bound, 5, 4, 16)
    val opt  = PropBounds.run(counter, 0.9, tauS = 5, kMin = 4, kMax = 16)
    val base = IterTD.run(counter, bound, tauS = 5, kMin = 4, kMax = 16)
    assert(opt.resByK == expect && base.resByK == expect)
    assert(expect.values.map(_.size).toSeq == Seq(3, 4, 4, 4, 3, 4, 3, 0, 3, 1, 1, 1, 0))
    assert(opt.examined == 45L)
    assert(base.examined == 453L)
  }

  test("running example, k ∈ [4,16]: exact countBatch calls, none empty, for PROPBOUNDS and ITERTD") {
    // One call per search wave that lists slots to count: a search below
    // leaves only, below no node at all, or below nodes whose lists are
    // empty must not count an empty batch. A batch holds the wave's listed
    // slots only; `examined` still adds every slot of every wave, so the
    // difference is the slots skipped: Apriori-gen's pruned candidates,
    // and for ITERTD every child a search at an earlier k found below τ_s.
    val opt = new BatchLogCounter(counter)
    val base = new BatchLogCounter(counter)
    val optExamined = PropBounds.run(opt, 0.9, tauS = 5, kMin = 4, kMax = 16).examined
    val baseExamined = IterTD.run(base, ProportionalLowerBound(0.9, 16), tauS = 5, kMin = 4, kMax = 16).examined
    assert(opt.sizes.forall(_ > 0) && base.sizes.forall(_ > 0))
    assert(opt.sizes.sum == 27 && optExamined - opt.sizes.sum == 18)
    assert(base.sizes.sum == 127 && baseExamined - base.sizes.sum == 326)
    assert(opt.sizes.size == 4)
    assert(base.sizes.size == 26)
  }

  test("the budget is checked once per k, between searches") {
    // With α = |D| every level-1 pattern stays biased, so no k after kMin
    // runs a BFS wave; the deadline passes while R(D)[5] is read.
    val slow = new SlowRowCounter(counter, slowRank = 5, sleepMillis = 700)
    val got = PropBounds.run(slow, 16.0, 1, 4, 16, Budget.ofMillis(500))
    assert(got.timedOut)
    assert(got.resByK.keySet == Set(4, 5))
    assert(got.resByK == IterTD.run(counter, ProportionalLowerBound(16.0, 16), 1, 4, 5).resByK)
  }

  test("rejects τ_s < 1 and α that is not positive and finite") {
    intercept[IllegalArgumentException](PropBounds.run(counter, 0.9, 0, 4, 5))
    for (alpha <- Seq(0.0, -0.5, Double.NaN, Double.PositiveInfinity))
      intercept[IllegalArgumentException](PropBounds.run(counter, alpha, 4, 4, 5))
  }

  test("status can oscillate: a pattern may leave and re-enter the result across k") {
    // Find a witness in random data: a pattern biased at some k, not at
    // k+1, biased again later — the regime PROPBOUNDS must track.
    var witnessed = false
    for (seed <- 0 until 40 if !witnessed) {
      val rix = RandomData.index(seed + 900, n = 30, m = 3)
      val res = BruteForce.run(rix, ProportionalLowerBound(0.9, rix.size.toLong), 3, 2, 28)
      val all = res.values.flatten.toSet
      witnessed = all.exists { q =>
        val in = res.toSeq.sortBy(_._1).map(_._2.contains(q))
        in.zip(in.tail).count { case (a, b) => a && !b } >= 1 &&
          in.zip(in.tail).exists { case (a, b) => !a && b }
      }
    }
    assert(witnessed, "no oscillating pattern found — tighten the generator")
  }

  test("PropBounds ≡ IterTD above the parallel threshold, repeatably") {
    val rix = RandomData.index(seed = 901, n = 20000, m = 6, maxCard = 4, minCard = 4)
    val alpha = 0.8
    def run(algo: PatternCounter => DetectionResult) = {
      val c = new BatchLogCounter(new LocalPatternCounter(rix))
      val res = algo(c)
      assert(c.maxBatch * KernelBatches.words(rix) >= DatasetIndex.ParallelWork)
      res
    }
    val opt  = Seq.fill(2)(run(PropBounds.run(_, alpha, 50, 1000, 1010)))
    val base = Seq.fill(2)(run(IterTD.run(_, ProportionalLowerBound(alpha, rix.size.toLong), 50, 1000, 1010)))
    assert(base(0).resByK.values.exists(_.nonEmpty))
    for (r <- opt ++ base) assert(r.resByK == base(0).resByK)
    assert(opt(0).examined == opt(1).examined && base(0).examined == base(1).examined)
  }

  test("a search resumed below a recovered node creates the last clean parent of a biased node, which enters Res at that k") {
    // Seed 20 of the random-data equivalence above: {A2=1} recovers at
    // k = 5 and was never expanded, so the search resumed below it creates
    // {A2=1, A3=2}, clean; {A1=1, A2=1, A3=2}, tracked and biased since
    // before k = 5, has no other unclean parent.
    val rix = RandomData.index(20, n = 40, m = 4)
    val alpha = 1.1
    val bound = ProportionalLowerBound(alpha, rix.size.toLong)
    val created = Pattern.of(4, 2 -> 1, 3 -> 2)
    val entering = Pattern.of(4, 1 -> 1, 2 -> 1, 3 -> 2)
    assert(RuleWitnesses.resumedParent(rix, bound, 3, 2, 35).contains((5, created, entering)))
    val got = PropBounds.run(new LocalPatternCounter(rix), alpha, 3, 2, 35).resByK
    assert(!got(4).contains(entering) && got(5).contains(entering))
    assert(got == BruteForce.run(rix, bound, 3, 2, 35))
  }
}
