package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.divergence.DivergenceExplorer

/** The search's slot lists ([[TopDownSearch.Node.slots]]) prune only
  * children with `s_D < τ_s`: Apriori-gen's candidates on a node's first
  * count, and its children below τ_s on every later one.
  *
  * A search without lists counts every slot of every node it expands and
  * makes a node of every child with `s_D ≥ τ_s`; whether it then expands
  * that node depends only on the node's counts. So if every expanded node
  * of a pruned run holds a node in exactly the slots whose brute-force s_D
  * is at least τ_s, the two runs hold the same nodes, level by level from
  * the root: every pattern the unpruned search reaches is still a node.
  */
class PruningSpec extends AnyFunSuite {
  import TopDownSearch.Node

  /** Counter that keeps the root of every tree it counts a wave of, and
    * sums the slots that Apriori-gen kept out of first counts.
    */
  private final class TreeLog(ix: DatasetIndex) extends PatternCounter {
    private val inner = new LocalPatternCounter(ix)
    val roots = scala.collection.mutable.ArrayBuffer.empty[Node]
    var pruned = 0L
    override def width: Int = inner.width
    override def domainSizes: IndexedSeq[Int] = inner.domainSizes
    override def datasetSize: Long = inner.datasetSize
    override def countBatch(patterns: Seq[Pattern], k: Int): Map[Pattern, (Long, Long)] = inner.countBatch(patterns, k)
    private val seen = scala.collection.mutable.Set.empty[Node] // by identity
    override def countWave(parents: IndexedSeq[PatternCounter.Parent], k: Int, sD: Array[Int], topK: Array[Int]): Unit = {
      for (q <- parents) {
        val n = q.asInstanceOf[Node]
        // first seen: its list still holds its candidates
        if (seen.add(n)) {
          pruned += n.children.length - n.slots.length
          if (n.attrs.isEmpty) roots += n
        }
      }
      inner.countWave(parents, k, sD, topK)
    }
    override def rankedRow(rank: Int): Array[Int] = inner.rankedRow(rank)
  }

  /** The expanded nodes of the trees whose roots `log` kept whose child
    * slots or slot list disagree with brute force at `τ_s`.
    */
  private def unsound(ix: DatasetIndex, log: TreeLog, tauS: Long): Seq[String] = {
    def below(n: Node): Iterator[Node] =
      Iterator(n) ++ (if (n.children eq null) Iterator.empty else n.children.iterator.filter(_ ne null).flatMap(below))
    for {
      n <- log.roots.iterator.flatMap(below).toSeq if n.children ne null
      children = n.p.searchTreeChildren(ix.domainSizes)
      sizes = children.map(c => ix.rows.count(c.matches))
      frequent = children.indices.filter(sizes(_) >= tauS)
      if !n.slots.sameElements(frequent) ||
        children.indices.exists(s => (n.children(s) ne null) != sizes(s) >= tauS) ||
        frequent.exists(s => n.children(s).sD != sizes(s))
    } yield s"${n.p}: lists ${n.slots.mkString(",")}, frequent ${frequent.mkString(",")}"
  }

  private val data = for (seed <- 0 until 16) yield {
    val ix = RandomData.index(seed + 1100, n = 40 + 10 * (seed % 4), m = 4 + seed % 2)
    (seed, ix, 2L + seed % 4)
  }

  /** Runs `detect` on every fixture, checks every tree it built, and
    * that Apriori-gen kept some slots out of their first counts.
    */
  private def check(name: String)(detect: (PatternCounter, DatasetIndex, Int, Long) => Unit): Unit = {
    var pruned = 0L
    for ((seed, ix, tauS) <- data) {
      val log = new TreeLog(ix)
      detect(log, ix, seed, tauS)
      assert(log.roots.nonEmpty, s"$name seed=$seed")
      val wrong = unsound(ix, log, tauS)
      assert(wrong.isEmpty, s"$name seed=$seed τ_s=$tauS: ${wrong.take(3)}")
      pruned += log.pruned
    }
    assert(pruned > 0, s"$name: Apriori-gen pruned nothing on the fixtures")
  }

  test("property: ITERTD's trees hold every child with s_D ≥ τ_s that an unpruned search reaches, and list exactly those") {
    check("ITERTD") { (c, ix, seed, tauS) =>
      val bound =
        if (seed % 2 == 0) ProportionalLowerBound(0.6 + 0.1 * (seed % 5), ix.size.toLong)
        else RandomData.wavyBound(seed, ix.size)
      val got = IterTD.run(c, bound, tauS, 2, 30)
      assert(got.resByK == BruteForce.run(ix, bound, tauS, 2, 30), s"seed=$seed")
    }
  }

  test("property: PropBounds' tree holds every child with s_D ≥ τ_s that an unpruned search reaches, and lists exactly those") {
    check("PropBounds") { (c, ix, seed, tauS) =>
      val alpha = 0.6 + 0.1 * (seed % 6)
      val got = PropBounds.run(c, alpha, tauS, 2, 30)
      assert(got.resByK == BruteForce.run(ix, ProportionalLowerBound(alpha, ix.size.toLong), tauS, 2, 30), s"seed=$seed")
    }
  }

  test("property: GlobalBounds' trees, with rising and with rising and falling L_k, hold every child with s_D ≥ τ_s that an unpruned search reaches") {
    var fresh = 0 // trees beyond the first: searches afresh where L_k falls
    for (wavy <- Seq(false, true))
      check(s"GlobalBounds, wavy=$wavy") { (c, ix, seed, tauS) =>
        val bound = if (wavy) RandomData.wavyBound(seed, 30) else RandomData.stepBound(seed, 30)
        val got = GlobalBounds.run(c, bound, tauS, 2, 30)
        assert(got.resByK == BruteForce.run(ix, bound, tauS, 2, 30), s"seed=$seed")
        fresh += c.asInstanceOf[TreeLog].roots.size - 1
      }
    assert(fresh > 0, "no L_k fall started a new tree")
  }

  test("property: DivergenceExplorer's tree holds every child with support ≥ minSupport, and lists exactly those") {
    check("DivergenceExplorer") { (c, ix, seed, tauS) =>
      val groups = DivergenceExplorer.run(c, 1 + seed % ix.size, tauS)
      assert(groups.map(_.p).toSet == BruteForce.tauRegion(ix, tauS).toSet, s"seed=$seed")
    }
  }
}
