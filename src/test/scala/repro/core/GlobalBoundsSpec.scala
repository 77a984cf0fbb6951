package repro.core

import org.scalatest.funsuite.AnyFunSuite

class GlobalBoundsSpec extends AnyFunSuite {
  import IndexCounts._
  import RunningExample.p
  private val ix = RunningExample.index
  private val counter = new LocalPatternCounter(ix)

  test("Example 4.6: Res[4] and Res[5] with L_4 = L_5 = 2, τ_s = 4") {
    val res = GlobalBounds.run(counter, GlobalLowerBound(_ => 2.0), tauS = 4, kMin = 4, kMax = 5)
    assert(res.resByK(4) == Set(
      p(1 -> 0), p(2 -> 1), p(3 -> 1), p(3 -> 2), p(0 -> 0, 1 -> 1), p(0 -> 0, 2 -> 0)))
    // k = 5: {Address=U} and {Failures=1} recover; their DRes descendants
    // {G=F/M, A=U}, {G=F, F=1}, {A=R, F=1} are promoted and the new node
    // {Address=U, Failures=1} is discovered — exactly as the paper narrates.
    assert(res.resByK(5) == Set(
      p(1 -> 0), p(3 -> 2), p(0 -> 0, 1 -> 1), p(0 -> 0, 2 -> 0),
      p(0 -> 0, 2 -> 1), p(0 -> 1, 2 -> 1), p(0 -> 0, 3 -> 1), p(2 -> 0, 3 -> 1),
      p(2 -> 1, 3 -> 1)))
  }

  test("bound increase needs no fresh search and stays correct") {
    val lk: Int => Double = k => if (k < 6) 1.0 else 2.0
    val c = new RootSearchCounter(counter)
    val got = GlobalBounds.run(c, GlobalLowerBound(lk), tauS = 4, kMin = 4, kMax = 8)
    val expect = BruteForce.run(ix, GlobalLowerBound(lk), 4, 4, 8)
    assert(got.resByK == expect)
    assert(c.rootSearchKs == Seq(4))
  }

  test("examined is below ITERTD's on the paper's default configuration shape") {
    val bound = GlobalLowerBound(_ => 3.0)
    val base = IterTD.run(counter, bound, tauS = 4, kMin = 4, kMax = 16)
    val opt  = GlobalBounds.run(counter, bound, tauS = 4, kMin = 4, kMax = 16)
    assert(opt.resByK == base.resByK)
    assert(opt.examined < base.examined,
      s"expected fewer examined patterns: opt=${opt.examined} base=${base.examined}")
  }

  test("single-k run equals the plain top-down search") {
    val bound = GlobalLowerBound(_ => 2.0)
    val a = GlobalBounds.run(counter, bound, 4, 4, 4).resByK(4)
    val b = IterTD.run(counter, bound, 4, 4, 4).resByK(4)
    assert(a == b)
  }

  test("timed-out run flags timedOut") {
    val res = GlobalBounds.run(counter, GlobalLowerBound(_ => 2.0), 4, 4, 10, Budget.ofMillis(-1))
    assert(res.timedOut)
  }

  for (seed <- 0 until 20)
    test(s"equivalent to ITERTD on random data with constant bound (seed $seed)") {
      val rix = RandomData.index(seed, n = 40, m = 4)
      val c = new LocalPatternCounter(rix)
      val bound = GlobalLowerBound(_ => (2 + seed % 4).toDouble)
      val tauS = 3 + seed % 3
      val got  = GlobalBounds.run(c, bound, tauS, 2, 35)
      val base = IterTD.run(c, bound, tauS, 2, 35)
      assert(got.resByK == base.resByK, s"seed=$seed")
    }

  for (seed <- 0 until 20)
    test(s"equivalent to ITERTD on random data with step bounds (seed $seed)") {
      val rix = RandomData.index(seed + 200, n = 40, m = 5)
      val c = new LocalPatternCounter(rix)
      val bound = RandomData.stepBound(seed, 30)
      val tauS = 3 + seed % 4
      val got  = GlobalBounds.run(c, bound, tauS, 2, 30)
      val base = IterTD.run(c, bound, tauS, 2, 30)
      assert(got.resByK == base.resByK, s"seed=$seed")
    }

  for (seed <- 0 until 12)
    test(s"equivalent to ITERTD on random data with domains up to 6 (seed $seed)") {
      val rix = RandomData.index(seed + 300, n = 80, m = 4, maxCard = 6)
      val c = new LocalPatternCounter(rix)
      val bound =
        if (seed % 2 == 0) GlobalLowerBound(_ => (1 + seed % 3).toDouble)
        else RandomData.stepBound(seed, 60)
      val tauS = 2 + seed % 3
      val got  = GlobalBounds.run(c, bound, tauS, 2, 60)
      val base = IterTD.run(c, bound, tauS, 2, 60)
      assert(got.resByK == base.resByK, s"seed=$seed")
    }

  test("running example, k ∈ [4,16]: exact work and Res[k] for GLOBALBOUNDS and ITERTD") {
    val bound = GlobalLowerBound(k => if (k < 10) 2.0 else 3.0)
    val expect = BruteForce.run(ix, bound, 4, 4, 16)
    val opt  = GlobalBounds.run(counter, bound, tauS = 4, kMin = 4, kMax = 16)
    val base = IterTD.run(counter, bound, tauS = 4, kMin = 4, kMax = 16)
    assert(opt.resByK == expect && base.resByK == expect)
    assert(expect.values.map(_.size).toSeq == Seq(6, 9, 9, 8, 5, 4, 10, 7, 5, 3, 0, 0, 0))
    assert(opt.examined == 77L)
    assert(base.examined == 828L)
  }

  test("running example, k ∈ [4,16]: exact countBatch calls, none empty, for GLOBALBOUNDS and ITERTD") {
    // One call per search wave that lists slots to count: a search below
    // leaves only, below no node at all, or below nodes whose lists are
    // empty must not count an empty batch. A batch holds the wave's listed
    // slots only; `examined` still adds every slot of every wave, so the
    // difference is the slots skipped: Apriori-gen's pruned candidates,
    // and for ITERTD every child a search at an earlier k found below τ_s.
    val bound = GlobalLowerBound(k => if (k < 10) 2.0 else 3.0)
    val opt = new BatchLogCounter(counter)
    val base = new BatchLogCounter(counter)
    val optExamined = GlobalBounds.run(opt, bound, tauS = 4, kMin = 4, kMax = 16).examined
    val baseExamined = IterTD.run(base, bound, tauS = 4, kMin = 4, kMax = 16).examined
    assert(opt.sizes.forall(_ > 0) && base.sizes.forall(_ > 0))
    assert(opt.sizes.sum == 54 && optExamined - opt.sizes.sum == 23)
    assert(base.sizes.sum == 346 && baseExamined - base.sizes.sum == 482)
    assert(opt.sizes.size == 9)
    assert(base.sizes.size == 31)
  }

  test("the budget is checked once per k, between searches") {
    // Every level-1 pattern stays biased, so no k after kMin runs a BFS
    // wave; the deadline passes while R(D)[5] is read.
    val bound = GlobalLowerBound(_ => 100.0)
    val slow = new SlowRowCounter(counter, slowRank = 5, sleepMillis = 700)
    val got = GlobalBounds.run(slow, bound, 1, 4, 16, Budget.ofMillis(500))
    assert(got.timedOut)
    assert(got.resByK.keySet == Set(4, 5))
    assert(got.resByK == IterTD.run(counter, bound, 1, 4, 5).resByK)
  }

  test("rejects τ_s < 1") {
    intercept[IllegalArgumentException](GlobalBounds.run(counter, GlobalLowerBound(_ => 2.0), 0, 4, 5))
  }

  test("Proposition 4.3: R(D)[k] satisfies one child per sibling set") {
    // The walk's premise: the counts that grow at k are exactly those of
    // the patterns R(D)[k] satisfies, and below a node it satisfies the
    // tuple matches one child per attribute; below any other node, none.
    val doms = ix.domainSizes
    val all = Iterator.iterate(Vector(Pattern.root(4)))(_.flatMap(_.searchTreeChildren(doms)))
      .takeWhile(_.nonEmpty).flatten.toVector
    for (k <- 2 to 16) {
      val row = counter.rankedRow(k)
      for (q <- all)
        assert(ix.sizes(q, k)._2 - ix.sizes(q, k - 1)._2 == (if (q.matches(row)) 1 else 0), s"k=$k $q")
      for (n <- all; a <- (n.maxIdx + 1) until n.width) {
        val hits = (0 until doms(a)).count(v => Pattern(n.vals.updated(a, v)).matches(row))
        assert(hits == (if (n.matches(row)) 1 else 0), s"k=$k node=$n attr=$a")
      }
    }
  }

  test("running example with an L_k that rises and then falls equals ITERTD and brute force") {
    // Falls at k = 9 and k = 15: a biased pattern may recover without
    // gaining a tuple, so the engine searches afresh there.
    val lk: Int => Double = k => if (k < 6) 1.0 else if (k < 9) 3.0 else if (k < 13) 2.0 else if (k < 15) 4.0 else 1.0
    val bound = GlobalLowerBound(lk)
    assert((3 to 16).filter(bound.fallsAt) == Seq(9, 15))
    val c = new RootSearchCounter(counter)
    val got = GlobalBounds.run(c, bound, tauS = 4, kMin = 2, kMax = 16)
    assert(c.rootSearchKs == Seq(2, 9, 15))
    val expect = BruteForce.run(ix, bound, 4, 2, 16)
    assert(got.resByK == expect)
    assert(IterTD.run(counter, bound, 4, 2, 16).resByK == expect)
  }

  for (seed <- 0 until 20)
    test(s"equivalent to ITERTD and brute force with rising and falling step bounds (seed $seed)") {
      val rix = RandomData.index(seed + 1100, n = 40, m = 4)
      val c = new LocalPatternCounter(rix)
      val bound = RandomData.wavyBound(seed, 35)
      val tauS = 2 + seed % 4
      val got  = GlobalBounds.run(c, bound, tauS, 2, 35)
      val expect = BruteForce.run(rix, bound, tauS, 2, 35)
      assert(got.resByK == expect, s"seed=$seed")
      assert(IterTD.run(c, bound, tauS, 2, 35).resByK == expect, s"seed=$seed")
    }

  test("steps of 2 or more: a count the new tuple raises can still fall below the bound") {
    // A step of 2 or more can pass a count in the same k that R(D)[k]
    // raises it by 1; the seeds together must reach that case.
    var witnessed = 0
    for (seed <- 0 until 10) {
      val rix = RandomData.index(seed + 1200, n = 50, m = 4)
      val c = new LocalPatternCounter(rix)
      val step = 3 + seed % 3
      val bound = GlobalLowerBound(k => (1 + 2 * (k / step) + seed % 2 * (k / (2 * step))).toDouble)
      val tauS = 2 + seed % 3
      val got = GlobalBounds.run(c, bound, tauS, 2, 45)
      val expect = BruteForce.run(rix, bound, tauS, 2, 45)
      assert(got.resByK == expect, s"seed=$seed")
      assert(IterTD.run(c, bound, tauS, 2, 45).resByK == expect, s"seed=$seed")
      val region = BruteForce.tauRegion(rix, tauS)
      witnessed += (3 to 45).count { k =>
        val row = rix.rows(k - 1)
        region.exists { q =>
          val (sD, before) = rix.sizes(q, k - 1)
          q.matches(row) && !bound.biased(before, sD, k - 1) && bound.biased(before + 1, sD, k)
        }
      }
    }
    assert(witnessed > 0, "no pattern gained a tuple while the bound passed it")
  }
}
