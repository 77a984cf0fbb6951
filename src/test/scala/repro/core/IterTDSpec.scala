package repro.core

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import PatternLattice._

class IterTDSpec extends AnyFunSuite {
  import IndexCounts._
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

  // ---- s_D carried across the k of one run ----

  test("running example, k ∈ [4,16]: each pattern's s_D is counted once per run, and afresh in the next run") {
    // (bound, τ_s, examined, s_D counted, top-k of a known s_D counted):
    // a search at a later k lists only the children an earlier one found
    // with s_D ≥ τ_s, so examined − counted − known slots (482 and 326)
    // are never sent to the counter.
    val runs = Seq(
      (GlobalLowerBound(k => if (k < 10) 2.0 else 3.0), 4L, 828L, 53, 293),
      (ProportionalLowerBound(0.9, 16), 5L, 453L, 27, 100),
    )
    for ((bound, tauS, examined, sized, known) <- runs) {
      val log = new SizeLogCounter(counter)
      val first = IterTD.run(log, bound, tauS, 4, 16)
      val counted = log.sizeCounted
      val reached = (log.unknown ++ log.known).flatten.toSet
      assert(first.examined == examined)
      assert(counted.distinct == counted, s"$bound: an s_D counted twice in one run")
      assert(counted.toSet == reached, s"$bound")
      assert(counted.size == sized && log.known.map(_.size).sum == known, s"$bound")
      assert(log.known.flatten.forall(ix.sizeD(_) >= tauS), s"$bound: a known slot below τ_s was listed")
      log.clear()
      val second = IterTD.run(log, bound, tauS, 4, 16)
      assert(second == first)
      assert(log.sizeCounted == counted, s"$bound: the second run must size every pattern again")
    }
  }

  test("a node biased at k and open at k+1 reuses children counted at an earlier k, their counts overwritten") {
    // Every level-1 pattern is biased at k = 5, so each search cuts at level 1
    // there; at k = 6 the level-1 nodes open again below the same root and
    // meet the children the k = 4 search counted.
    val bound = GlobalLowerBound(k => if (k == 5) 100.0 else 1.0)
    val log = new SizeLogCounter(counter)
    val tree = new TopDownSearch.Tree(log, bound, 4)
    val root = tree.root
    def visited(k: Int) = { tree.search(Seq(root), k, Budget.unlimited); SearchReach.reached(tree) }
    val at4 = visited(4)
    val cnt4 = at4.map(n => n -> n.cnt).toMap
    val at5 = tree.search(Seq(root), 5, Budget.unlimited)
    val biased5 = SearchReach.reached(tree).filter(_.biased)
    assert(at5.opened.isEmpty && biased5.nonEmpty && biased5.forall(_.p.level == 1))
    log.clear()
    val at6 = visited(6)
    val reused = at6.filter(n => n.p.level >= 2 && cnt4.contains(n))
    assert(reused.exists(n => cnt4(n) != n.cnt), "no stale count to overwrite")
    for (n <- at6) {
      assert(n.cnt == ix.sizes(n.p, 6)._2, s"${n.p}")
      assert(n.biased == bound.biased(n.cnt, n.sD, 6), s"${n.p}")
    }
    assert(log.sizeCounted.toSet.intersect(at4.map(_.p).toSet).isEmpty)
    assert(IterTD.run(counter, bound, 4, 4, 6).resByK == BruteForce.run(ix, bound, 4, 4, 6))
  }

  /** A ranked dataset with many score ties: the score is a weighted sum
    * of attribute values with small weights, so tuples of equal score are
    * frequent and runs of them are ranked by tuple id. At least one
    * domain exceeds 4.
    */
  private val tiedData: Gen[DatasetIndex] = for {
    m <- Gen.choose(3, 4)
    cards <- Gen.listOfN(m, Gen.choose(2, 7)).suchThat(_.exists(_ > 4))
    n <- Gen.choose(20, 60)
    rows <- Gen.listOfN(n, Gen.sequence[Vector[Int], Int](cards.map(c => Gen.choose(0, c - 1))))
    weights <- Gen.listOfN(m, Gen.choose(-1, 2))
  } yield {
    val ranked = rows.zipWithIndex.sortBy { case (r, id) => (-r.zip(weights).map { case (v, w) => v * w }.sum, id) }
    new DatasetIndex(
      ranked.map(_._1.toArray).toArray,
      cards.toIndexedSeq,
      cards.indices.map(a => s"A$a"),
      cards.toIndexedSeq.map(c => (0 until c).map(_.toString)),
    )
  }

  private def sample[A](gen: Gen[A], seed: Long): A = gen.pureApply(Gen.Parameters.default, Seed(seed))

  test("property: ITERTD ≡ brute force ≡ GlobalBounds / PropBounds with wide domains, score ties and k up to |D|") {
    var mostFlips = 0 // most biased/unbiased changes of one pattern over one run's k range
    for (seed <- 0L until 30L) {
      val rix = sample(tiedData, seed)
      val c = new LocalPatternCounter(rix)
      val n = rix.size
      val tauS = 1 + seed % 4
      val kMin = 1 + (seed % 3).toInt
      val alpha = 0.5 + 0.1 * (seed % 8)
      val prop = ProportionalLowerBound(alpha, n.toLong)
      val global = if (seed % 2 == 0) RandomData.wavyBound(seed, n) else RandomData.stepBound(seed, n)
      for ((bound, incremental) <- Seq(
        global -> GlobalBounds.run(c, global, tauS, kMin, n),
        prop -> PropBounds.run(c, alpha, tauS, kMin, n),
      )) {
        val expect = BruteForce.run(rix, bound, tauS, kMin, n)
        assert(IterTD.run(c, bound, tauS, kMin, n).resByK == expect, s"seed=$seed $bound")
        assert(incremental.resByK == expect, s"seed=$seed $bound")
        for (q <- BruteForce.tauRegion(rix, tauS)) {
          val states = (kMin to n).map { k => val (d, t) = rix.sizes(q, k); bound.biased(t, d, k) }
          mostFlips = math.max(mostFlips, states.zip(states.tail).count { case (a, b) => a != b })
        }
      }
    }
    assert(mostFlips >= 6, s"no pattern changed state more than $mostFlips times")
  }

  /** `Res[k]` by the [[MostGeneral]] oracle: the most general members of
    * the biased patterns with `s_D ≥ τ_s`, kept under each k's delta.
    */
  private def oracleRes(rix: DatasetIndex, bound: BiasBound, tauS: Long, kMin: Int, kMax: Int): Map[Int, Set[Pattern]] = {
    val region = BruteForce.tauRegion(rix, tauS)
    val mg = new MostGeneral
    var biased = Set.empty[Pattern]
    (kMin to kMax).map { k =>
      val now = region.filter { q =>
        val (d, t) = rix.sizes(q, k)
        bound.biased(t, d, k)
      }.toSet
      mg.update(biased -- now, now -- biased)
      biased = now
      k -> mg.res
    }.toMap
  }

  test("property: ITERTD's in-wave Res[k] ≡ the MostGeneral oracle ≡ brute force at every k, lattice parents created at a later k included") {
    // Random tied data under both bound types, and Figure 1 with every
    // level-1 pattern biased at k = 5 only (the "biased at k, open at
    // k + 1" case above).
    val random = for (seed <- 0L until 40L) yield {
      val rix = sample(tiedData, seed + 100)
      val n = rix.size
      val tauS = 1 + seed % 3
      val bound =
        if (seed % 2 == 0) ProportionalLowerBound(0.6 + 0.1 * (seed % 5), n.toLong)
        else RandomData.wavyBound(seed, n)
      (s"seed=$seed", rix, bound: BiasBound, tauS, 1 + (seed % 4).toInt, math.min(n, 30))
    }
    val figure1 = ("Figure 1", ix, GlobalLowerBound(k => if (k == 5) 100.0 else 1.0): BiasBound, 4L, 4, 6)
    var late = 0
    var reopened = 0
    for ((name, rix, bound, tauS, kMin, kMax) <- random :+ figure1) {
      val got = IterTD.run(new LocalPatternCounter(rix), bound, tauS, kMin, kMax).resByK
      val expect = BruteForce.run(rix, bound, tauS, kMin, kMax)
      assert(got == expect, s"$name $bound")
      assert(got == oracleRes(rix, bound, tauS, kMin, kMax), s"$name $bound")
      late += RuleWitnesses.lateParent(rix, bound, tauS, kMin, kMax).size
      val again = RuleWitnesses.reopened(rix, bound, tauS, kMin, kMax)
      if (name == "Figure 1") assert(again.exists(_._1 == 5), "Figure 1 does not reopen its level-1 nodes at k = 6")
      reopened += again.size
    }
    assert(late > 0, "no lattice parent was created after a search reached its child")
    assert(reopened > 0)
  }

  test("property: heavy churn on 300 tuples, k ∈ [1,300]: ITERTD ≡ GlobalBounds / PropBounds ≡ brute force at every k") {
    var churn = 0 // patterns entering or leaving Res from one k to the next, over all runs
    for (seed <- 0L until 4L) {
      val rix = RandomData.index(seed + 700, n = 300, m = 4)
      val c = new LocalPatternCounter(rix)
      val tauS = 4 + seed % 3
      // A wavy L_k scaled with k, so that it rises and falls across the
      // counts of every level, not only the smallest.
      val steps = RandomData.wavyBound(seed, 300)
      val wavy = GlobalLowerBound(k => steps.lk(k) * k / 40)
      val alpha = 0.7 + 0.1 * seed
      val prop = ProportionalLowerBound(alpha, rix.size.toLong)
      for ((bound, incremental) <- Seq(
        wavy -> GlobalBounds.run(c, wavy, tauS, 1, 300),
        prop -> PropBounds.run(c, alpha, tauS, 1, 300),
      )) {
        val expect = BruteForce.run(rix, bound, tauS, 1, 300)
        assert(IterTD.run(c, bound, tauS, 1, 300).resByK == expect, s"seed=$seed $bound")
        assert(incremental.resByK == expect, s"seed=$seed $bound")
        churn += expect.values.zip(expect.values.tail).map { case (a, b) => (a diff b).size + (b diff a).size }.sum
      }
    }
    assert(churn > 10000, s"only $churn changes of Res")
  }

  test("Figure 1, α = 0.8: a node clean at k and cut at k+1 does not make its biased lattice child most general") {
    // {School=GP} is clean at k = 2 and biased at k = 3, where the search
    // cuts it and reaches its lattice child {Gender=M, School=GP} through
    // {Gender=M}, that child's only other immediate parent, which is clean.
    val bound = ProportionalLowerBound(0.8, 16)
    val witnesses = RuleWitnesses.staleParent(ix, bound, 4, 2, 16)
    assert(witnesses.contains((3, p(1 -> 0), p(0 -> 1, 1 -> 0))))
    val got = IterTD.run(counter, bound, 4, 2, 16).resByK
    for ((k, _, child) <- witnesses) assert(!got(k).contains(child), s"k=$k $child")
    assert(got == BruteForce.run(ix, bound, 4, 2, 16))
  }
}
