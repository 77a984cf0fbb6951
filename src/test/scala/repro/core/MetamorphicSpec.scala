package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.divergence.DivergenceExplorer
import scala.util.Random

/** Metamorphic properties. The search tree depends on the attribute order
  * and on the value indices; the answers do not. Permuting the attributes
  * reshapes the tree and every node's slot layout, and renaming the values
  * within each domain reorders every set of siblings. Under either, every
  * detector's `Res[k]` and the divergence groups map onto the originals.
  *
  * Duplicating each ranked tuple in place (the copies adjacent in rank)
  * doubles |D|, every s_D and every count in the top-2k. With τ_s doubled
  * too, the proportional `Res[2k]` equals `Res[k]`: the threshold
  * `α · s_D · k / |D|` doubles exactly in floating point.
  */
class MetamorphicSpec extends AnyFunSuite {

  /** A relabelling of the schema: attribute `i` of the image is attribute
    * `perm(i)` of the original, and value `v` of original attribute `a`
    * becomes `rename(a)(v)`.
    */
  private final class Relabel(val perm: IndexedSeq[Int], val rename: IndexedSeq[IndexedSeq[Int]]) {
    def row(r: Array[Int]): Array[Int] = perm.map(a => rename(a)(r(a))).toArray

    def pattern(p: Pattern): Pattern =
      Pattern(perm.map(a => if (p.vals(a) == Pattern.Wildcard) Pattern.Wildcard else rename(a)(p.vals(a))).toVector)

    def index(ix: DatasetIndex): DatasetIndex = {
      // The image's value w of attribute a carries the label of the v with rename(a)(v) = w.
      val doms = perm.map(a => rename(a).indices.sortBy(rename(a)).map(ix.domains(a)))
      new DatasetIndex(ix.rows.map(row), perm.map(ix.domainSizes), perm.map(ix.attrNames), doms)
    }
  }

  private def nonIdentity(rnd: Random, n: Int): IndexedSeq[Int] =
    Iterator.continually(rnd.shuffle((0 until n).toVector)).find(_ != (0 until n)).get

  /** Attribute permutation only, value renaming only, and both. */
  private def relabels(rnd: Random, cards: IndexedSeq[Int]): Seq[(String, Relabel)] = {
    val id = cards.indices
    val rename = cards.map(c => rnd.shuffle((0 until c).toVector))
    val renamed = if (rename == cards.map(0 until _)) rename.updated(0, nonIdentity(rnd, cards(0))) else rename
    val perm = nonIdentity(rnd, cards.size)
    Seq(
      "permuted attributes" -> new Relabel(perm, cards.map(0 until _)),
      "renamed values" -> new Relabel(id, renamed),
      "both" -> new Relabel(perm, renamed),
    )
  }

  private def data(seed: Int): DatasetIndex =
    RandomData.index(seed + 1300, n = 60, m = 4, maxCard = 6, minCard = 3)

  test("the metamorphic seeds include domains above 4") {
    assert((0 until 20).exists(s => data(s).domainSizes.exists(_ > 4)))
  }

  for (seed <- 0 until 20)
    test(s"permuting attributes or renaming values maps Res[k] and the divergence groups (seed $seed)") {
      val rnd = new Random(seed)
      val ix = data(seed)
      val n = ix.size.toLong
      val tauS = 2 + seed % 3
      val alpha = 0.6 + 0.1 * (seed % 5)
      val step = RandomData.stepBound(seed, 50)
      def detections(c: PatternCounter): Seq[(String, DetectionResult)] = Seq(
        "ITERTD global" -> IterTD.run(c, step, tauS, 2, 50),
        "ITERTD proportional" -> IterTD.run(c, ProportionalLowerBound(alpha, n), tauS, 2, 50),
        "GLOBALBOUNDS" -> GlobalBounds.run(c, step, tauS, 2, 50),
        "PROPBOUNDS" -> PropBounds.run(c, alpha, tauS, 2, 50),
      )
      def groups(c: PatternCounter) = DivergenceExplorer.run(c, k = 15, minSupport = tauS)
      val counter = new LocalPatternCounter(ix)
      val before = detections(counter)
      val divBefore = groups(counter)
      assert(before.forall(_._2.resByK.values.exists(_.nonEmpty)), s"seed=$seed: vacuous")
      for ((what, f) <- relabels(rnd, ix.domainSizes)) {
        val image = new LocalPatternCounter(f.index(ix))
        for (((algo, a), (_, b)) <- before.zip(detections(image)))
          assert(b.resByK == a.resByK.map { case (k, ps) => k -> ps.map(f.pattern) }, s"seed=$seed $what $algo")
        val divAfter = groups(image).map(g => (g.p, g.support, g.outcome, g.divergence)).toSet
        assert(divAfter == divBefore.map(g => (f.pattern(g.p), g.support, g.outcome, g.divergence)).toSet,
          s"seed=$seed $what divergence")
      }
    }

  /** Each ranked tuple twice, the copies adjacent in rank. */
  private def duplicated(ix: DatasetIndex): DatasetIndex =
    new DatasetIndex(ix.rows.flatMap(r => Array(r, r)), ix.domainSizes, ix.attrNames, ix.domains)

  /** Proportional ITERTD and PROPBOUNDS `Res[k]` on `ix`, k ∈ [1, kMax],
    * against `Res[2k]` on the duplicated data with 2τ_s.
    */
  private def assertDuplicationInvariant(ix: DatasetIndex, alpha: Double, tauS: Long, kMax: Int, clue: String): Unit = {
    val runs: Seq[(String, (PatternCounter, Long, Int, Int) => DetectionResult)] = Seq(
      "ITERTD" -> ((c, tau, lo, hi) => IterTD.run(c, ProportionalLowerBound(alpha, c.datasetSize), tau, lo, hi)),
      "PROPBOUNDS" -> ((c, tau, lo, hi) => PropBounds.run(c, alpha, tau, lo, hi)),
    )
    for ((algo, run) <- runs) {
      val once = run(new LocalPatternCounter(ix), tauS, 1, kMax).resByK
      val twice = run(new LocalPatternCounter(duplicated(ix)), 2 * tauS, 2, 2 * kMax).resByK
      assert(once.values.exists(_.nonEmpty), s"$clue $algo: vacuous")
      for ((k, res) <- once) assert(twice(2 * k) == res, s"$clue $algo k=$k")
    }
  }

  test("duplicating every tuple with τ_s doubled keeps proportional Res[2k] = Res[k] (Figure 1)") {
    for (alpha <- Seq(0.5, 0.8, 0.9, 1.0); tauS <- Seq(4L, 5L))
      assertDuplicationInvariant(RunningExample.index, alpha, tauS, 16, s"alpha=$alpha tauS=$tauS")
  }

  for (seed <- 0 until 20)
    test(s"duplicating every tuple with τ_s doubled keeps proportional Res[2k] = Res[k] (seed $seed)") {
      assertDuplicationInvariant(data(seed), 0.6 + 0.1 * (seed % 5), 2 + seed % 3, 50, s"seed=$seed")
    }
}
