package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import PatternLattice._

class MostGeneralSpec extends AnyFunSuite {

  /** The literal definition: members no other member strictly subsumes. */
  private def allPairs(b: Set[Pattern]): Set[Pattern] =
    b.filter(p => !b.exists(_.strictlySubsumes(p)))

  private def check(mg: MostGeneral, model: Set[Pattern], clue: => String): Unit = {
    assert(mg.members.toSet == model, clue)
    assert(mg.res == allPairs(model), clue)
  }

  /** Patterns drawn as random sub-patterns of a few random tuples, so that
    * sub-pattern relations between draws are frequent.
    */
  private def pool(rnd: Random, width: Int, maxLevel: Int): IndexedSeq[Pattern] = {
    val cards = IndexedSeq.fill(width)(1 + rnd.nextInt(6))
    val tuples = IndexedSeq.fill(4)(Vector.tabulate(width)(a => rnd.nextInt(cards(a))))
    IndexedSeq.fill(60) {
      val t = tuples(rnd.nextInt(tuples.size))
      val attrs = rnd.shuffle((0 until width).toList).take(rnd.nextInt(math.min(width, maxLevel) + 1))
      Pattern.of(width, attrs.map(a => a -> t(a)): _*)
    }.distinct
  }

  for (seed <- 0 until 30)
    test(s"random add/remove sequences match the all-pairs definition (seed $seed)") {
      val rnd = new Random(seed)
      val width = 1 + rnd.nextInt(12)
      val ps = pool(rnd, width, maxLevel = 8)
      val mg = new MostGeneral
      var model = Set.empty[Pattern]
      for (step <- 0 until 150) {
        val clue = s"seed=$seed width=$width step=$step"
        rnd.nextInt(3) match {
          case 0 =>
            val p = ps(rnd.nextInt(ps.size))
            mg.update(Nil, Seq(p))
            model += p
            assert(mg.res.contains(p) == allPairs(model).contains(p), clue)
          case 1 =>
            val left = if (model.isEmpty) Nil else rnd.shuffle(model.toList).take(1 + rnd.nextInt(3))
            mg.update(left, Nil)
            model --= left
          case _ =>
            // Mixed delta; a pattern may both leave and enter.
            val left = rnd.shuffle(model.toList).take(rnd.nextInt(4)) :+ ps(rnd.nextInt(ps.size))
            val entered = Seq.fill(rnd.nextInt(5))(ps(rnd.nextInt(ps.size)))
            mg.update(left, entered)
            model = (model -- left) ++ entered
        }
        check(mg, model, clue)
      }
    }

  test("an unchanged set shares its Res snapshot") {
    val mg = new MostGeneral
    mg.update(Nil, Seq(Pattern.of(4, 0 -> 0), Pattern.of(4, 0 -> 0, 1 -> 1), Pattern.of(4, 2 -> 1)))
    val snap = mg.res
    mg.update(Nil, Nil)
    mg.update(Seq(Pattern.of(4, 3 -> 2)), Nil) // not a member
    mg.update(Nil, Seq(Pattern.of(4, 2 -> 1))) // already a member
    assert(mg.res eq snap)
  }

  test("a leaving Res member promotes exactly the members it dominated") {
    val a = Pattern.of(4, 0 -> 0)
    val ab = Pattern.of(4, 0 -> 0, 1 -> 1)
    val b = Pattern.of(4, 1 -> 1)
    val abc = Pattern.of(4, 0 -> 0, 1 -> 1, 2 -> 0)
    val mg = new MostGeneral
    mg.update(Nil, Seq(abc, ab, a, b))
    assert(mg.res == Set(a, b))
    mg.update(Seq(a), Nil)
    assert(mg.res == Set(b))
    mg.update(Seq(b), Nil)
    assert(mg.res == Set(ab))
  }

  test("the root dominates every other member") {
    val r = Pattern.root(3)
    val x = Pattern.of(3, 1 -> 0)
    val mg = new MostGeneral
    mg.update(Nil, Seq(x))
    val y = Pattern.of(3, 1 -> 0, 2 -> 1)
    mg.update(Nil, Seq(y))
    assert(!mg.res.contains(y))
    mg.update(Nil, Seq(r))
    assert(mg.res.contains(r))
    assert(mg.res == Set(r))
    mg.update(Seq(r), Nil)
    assert(mg.res == Set(x))
  }

  test("patterns deeper than the probe limit fall back to a scan") {
    val width = 40
    val deep = Pattern.of(width, (0 until 35).map(a => a -> 1): _*)
    val sub = Pattern.of(width, (0 until 34).map(a => a -> 1): _*)
    val other = Pattern.of(width, 39 -> 0)
    val mg = new MostGeneral
    mg.update(Nil, Seq(other, deep))
    assert(mg.res == Set(other, deep))
    mg.update(Nil, Seq(sub))
    assert(mg.res == Set(other, sub))
    mg.update(Seq(sub), Nil)
    assert(mg.res == Set(other, deep))
  }
}
