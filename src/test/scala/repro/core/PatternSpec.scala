package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import PatternLattice._

class PatternSpec extends AnyFunSuite {
  import MostGeneralFixture.splitMostGeneral

  /** Deterministically drawn samples from a ScalaCheck generator. */
  private def samples[A](gen: Gen[A], n: Int): Seq[A] =
    (0 until n).map(i => gen.pureApply(Gen.Parameters.default, Seed(i.toLong)))

  private val doms = IndexedSeq(2, 2, 2, 3)

  test("root pattern has no attributes and maxIdx -1") {
    val r = Pattern.root(4)
    assert(r.isRoot && r.attrs.isEmpty && r.maxIdx == -1 && r.level == 0)
  }

  test("attrs/level/maxIdx of a two-attribute pattern") {
    val p = Pattern.of(4, 1 -> 0, 3 -> 2)
    assert(p.attrs == Seq(1, 3) && p.level == 2 && p.maxIdx == 3)
  }

  test("subsumes: more general pattern subsumes its extensions") {
    val g = Pattern.of(4, 0 -> 1)
    val s = Pattern.of(4, 0 -> 1, 2 -> 0)
    assert(g.subsumes(s) && !s.subsumes(g))
    assert(g.strictlySubsumes(s) && !g.strictlySubsumes(g))
  }

  test("subsumes is reflexive; strictlySubsumes is not") {
    val p = Pattern.of(4, 0 -> 0, 1 -> 1)
    assert(p.subsumes(p) && !p.strictlySubsumes(p))
  }

  test("patterns on different values of the same attribute are incomparable") {
    val a = Pattern.of(4, 0 -> 0)
    val b = Pattern.of(4, 0 -> 1)
    assert(!a.subsumes(b) && !b.subsumes(a))
  }

  test("root children enumerate every attribute-value pair") {
    val kids = Pattern.root(4).searchTreeChildren(doms)
    assert(kids.size == 2 + 2 + 2 + 3)
    assert(kids.forall(_.level == 1))
    assert(kids.distinct.size == kids.size)
  }

  test("search-tree children are the for-comprehension over later attributes, then values, in that order") {
    val wide = IndexedSeq(3, 1, 4, 2, 5)
    val gen = Gen.sequence[Vector[Int], Int](wide.map(c => Gen.choose(-1, c - 1))).map(Pattern(_))
    for (p <- Pattern.root(5) +: samples(gen, 200)) {
      val want = for {
        a <- (p.maxIdx + 1) until p.width
        v <- 0 until wide(a)
      } yield Pattern(p.vals.updated(a, v))
      assert(p.searchTreeChildren(wide) == want, p)
    }
  }

  test("the cached hash is the case-class hash, on ranges, constant runs and random values") {
    import scala.util.hashing.MurmurHash3.caseClassHash
    def vectors(len: Int): Iterator[Vector[Int]] =
      if (len == 0) Iterator(Vector.empty) else vectors(len - 1).flatMap(v => (-1 to 3).iterator.map(v :+ _))
    val exhaustive = (0 to 5).iterator.flatMap(vectors)
    val ranges = for (len <- (0 to 24).iterator; start <- -1 to 2; step <- -2 to 3) yield Vector.tabulate(len)(start + step * _)
    val random = samples(Gen.choose(0, 40).flatMap(Gen.listOfN(_, Gen.choose(-1, 6))).map(_.toVector), 500)
    for (v <- exhaustive ++ ranges ++ random) {
      val p = Pattern(v)
      assert(p.hashCode == caseClassHash(p), v)
    }
  }

  test("Example 4.2: {G=F,S=GP} is a search-tree child of {G=F}, not of {S=GP}") {
    val gf = Pattern.of(4, 0 -> 0)
    val sgp = Pattern.of(4, 1 -> 0)
    val both = Pattern.of(4, 0 -> 0, 1 -> 0)
    assert(gf.searchTreeChildren(doms).contains(both))
    assert(!sgp.searchTreeChildren(doms).contains(both))
  }

  test("search-tree children only extend with larger attribute indices") {
    val p = Pattern.of(4, 2 -> 1)
    val kids = p.searchTreeChildren(doms)
    assert(kids.size == 3) // only Failures (idx 3, card 3) remains
    assert(kids.forall(c => c.attrs == Seq(2, 3)))
  }

  test("a full pattern has no search-tree children") {
    val p = Pattern.of(4, 0 -> 0, 1 -> 0, 2 -> 0, 3 -> 0)
    assert(p.searchTreeChildren(doms).isEmpty)
  }

  test("parents drop exactly one attribute each") {
    val p = Pattern.of(4, 0 -> 1, 2 -> 0, 3 -> 2)
    val par = p.parents
    assert(par.size == 3)
    assert(par.forall(q => q.level == 2 && q.strictlySubsumes(p)))
  }

  test("splitMostGeneral keeps minimal patterns and dominates the rest") {
    val a = Pattern.of(4, 0 -> 0)
    val ab = Pattern.of(4, 0 -> 0, 1 -> 1)
    val c = Pattern.of(4, 2 -> 1)
    val (min, dom) = splitMostGeneral(Seq(ab, a, c))
    assert(min == Set(a, c) && dom == Set(ab))
  }

  test("splitMostGeneral of an antichain keeps everything") {
    val xs = Seq(Pattern.of(4, 0 -> 0), Pattern.of(4, 0 -> 1), Pattern.of(4, 1 -> 0))
    val (min, dom) = splitMostGeneral(xs)
    assert(min == xs.toSet && dom.isEmpty)
  }

  test("render uses attribute names and value labels") {
    val p = RunningExample.p(1 -> 0, 2 -> 1)
    assert(p.render(RunningExample.attrNames, RunningExample.domains) == "{School=GP, Address=U}")
  }

  test("search tree visits every pattern exactly once (spanning tree)") {
    // BFS expansion from the root must enumerate each pattern graph node once.
    val all = scala.collection.mutable.ArrayBuffer.empty[Pattern]
    var frontier: Seq[Pattern] = Pattern.root(4).searchTreeChildren(doms)
    while (frontier.nonEmpty) {
      all ++= frontier
      frontier = frontier.flatMap(_.searchTreeChildren(doms))
    }
    val expected = (1 + 2) * (1 + 2) * (1 + 2) * (1 + 3) - 1 // Π(card+1) − root
    assert(all.size == expected)
    assert(all.distinct.size == all.size)
  }

  test("property: subsumption is transitive") {
    val gen = Gen.listOfN(3, Gen.listOfN(4, Gen.choose(-1, 1)).map(v => Pattern(v.toVector)))
    for (Seq(p, q, r) <- samples(gen, 200)) {
      if (p.subsumes(q) && q.subsumes(r)) assert(p.subsumes(r))
    }
  }

  test("property: splitMostGeneral partition covers the input") {
    val gen = Gen.listOfN(8, Gen.listOfN(4, Gen.choose(-1, 1)).map(v => Pattern(v.toVector)))
    for (ps <- samples(gen, 100)) {
      val (min, dom) = splitMostGeneral(ps)
      assert((min ++ dom) == ps.toSet)
      assert(min.forall(p => !min.exists(_.strictlySubsumes(p))))
      assert(dom.forall(p => min.exists(_.strictlySubsumes(p))))
    }
  }

  test("property: patterns are equal iff their values are, and equal patterns hash alike") {
    val pat = Gen.choose(1, 4).flatMap(w => Gen.listOfN(w, Gen.choose(-1, 1))).map(v => Pattern(v.toVector))
    // half the pairs rebuild the first pattern from a fresh Vector
    val gen = Gen.zip(pat, pat, Gen.oneOf(true, false)).map { case (a, b, same) =>
      (a, if (same) Pattern(a.vals.toList.toVector) else b)
    }
    val pairs = samples(gen, 400)
    for ((a, b) <- pairs) {
      assert((a == b) == (a.vals == b.vals), s"$a vs $b")
      assert((b == a) == (a == b))
      if (a == b) assert(a.hashCode == b.hashCode)
    }
    assert(pairs.exists { case (a, b) => a == b } && pairs.exists { case (a, b) => a != b })
    assert(pairs.exists { case (a, b) => a.width != b.width && a.vals.take(b.width) == b.vals.take(a.width) })
  }

  test("hashCode is pinned: hash-ordered iteration over patterns does not change") {
    // Scala 2.13's case-class hash of each pattern; hash sets and maps of
    // patterns iterate in the order these values fix
    val pinned = Seq(
      Pattern.root(4) -> 2049942154,
      Pattern.of(4, 1 -> 0, 3 -> 2) -> -608638907,
      Pattern.of(16, 0 -> 2, 6 -> 3, 15 -> 1) -> 245067606,
      Pattern(Vector(0)) -> 279603911,
      Pattern(Vector.empty) -> 1373901184,
    )
    for ((p, h) <- pinned) assert(p.hashCode == h, s"$p")
  }
}
