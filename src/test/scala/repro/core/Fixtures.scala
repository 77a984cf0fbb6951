package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.util.Random

/** The paper's running example (Figure 1): 16 students with attributes
  * Gender, School, Address, Failures, ranked by grade (desc) with
  * failures (asc) as tie-break. The `Rank` column of Figure 1 is
  * reproduced verbatim.
  *
  * Encoded value indices follow the sorted-string dictionaries of
  * [[repro.data.Encoding]]: F=0/M=1, GP=0/MS=1, R=0/U=1, failures 0/1/2.
  */
object RunningExample {
  // (id, gender, school, address, failures, grade, rank) — Figure 1 rows.
  val raw: Seq[(Int, String, String, String, Int, Int, Int)] = Seq(
    (1, "F", "MS", "R", 1, 11, 8),
    (2, "M", "MS", "R", 1, 15, 3),
    (3, "M", "GP", "U", 1, 8, 10),
    (4, "M", "GP", "U", 2, 4, 16),
    (5, "M", "MS", "R", 0, 19, 2),
    (6, "F", "MS", "U", 1, 4, 15),
    (7, "F", "GP", "R", 1, 7, 11),
    (8, "M", "GP", "R", 1, 6, 13),
    (9, "F", "MS", "R", 0, 14, 4),
    (10, "F", "MS", "R", 2, 7, 12),
    (11, "M", "MS", "R", 2, 13, 6),
    (12, "F", "GP", "U", 0, 20, 1),
    (13, "F", "GP", "U", 2, 12, 7),
    (14, "M", "MS", "U", 1, 13, 5),
    (15, "F", "GP", "U", 1, 5, 14),
    (16, "M", "GP", "U", 0, 9, 9),
  )

  val attrNames: IndexedSeq[String] = IndexedSeq("Gender", "School", "Address", "Failures")
  val domains: IndexedSeq[IndexedSeq[String]] =
    IndexedSeq(IndexedSeq("F", "M"), IndexedSeq("GP", "MS"), IndexedSeq("R", "U"), IndexedSeq("0", "1", "2"))

  private def enc(t: (Int, String, String, String, Int, Int, Int)): Array[Int] = {
    val (_, g, s, a, f, _, _) = t
    Array(domains(0).indexOf(g), domains(1).indexOf(s), domains(2).indexOf(a), f)
  }

  /** Index with tuples in rank order. */
  lazy val index: DatasetIndex = {
    val rows = raw.sortBy(_._7).map(enc).toArray
    new DatasetIndex(rows, IndexedSeq(2, 2, 2, 3), attrNames, domains)
  }

  /** Unencoded DataFrame with id/grade columns, no rank (for Ranker tests). */
  def df(spark: SparkSession): DataFrame = {
    import spark.implicits._
    raw.toDF("id", "gender", "school", "address", "failures", "grade", "paper_rank")
  }

  /** Pattern helper over this 4-attribute schema. */
  def p(assignments: (Int, Int)*): Pattern = Pattern.of(4, assignments: _*)
}

/** One-shot uses of the oracle [[MostGeneral]], and the paper's `DRes`. */
object MostGeneralFixture {

  /** Partition `patterns` into (most general, dominated): a pattern is
    * dominated iff some other pattern in the set strictly subsumes it.
    */
  def splitMostGeneral(patterns: Iterable[Pattern]): (Set[Pattern], Set[Pattern]) = {
    val mg = new MostGeneral
    mg.update(Nil, patterns)
    (mg.res, mg.members.toSet -- mg.res)
  }

  /** `DRes[k]` (Section IV-A): the biased patterns a search from the root
    * reaches at `k` that are not in `Res[k]`.
    */
  def dres(counter: PatternCounter, bound: BiasBound, tauS: Long, k: Int): Set[Pattern] = {
    val tree = new TopDownSearch.Tree(counter, bound, tauS)
    val reached = tree.search(Seq(tree.root), k, Budget.unlimited).biased.map(_.p).toSet
    reached -- IterTD.run(counter, bound, tauS, k, k).resByK(k)
  }
}

/** Small random ranked datasets for property-style tests (pure Scala —
  * the searches are exercised without Spark; Spark paths have their own
  * suites).
  */
object RandomData {

  /** Random index: `n` tuples, attribute cardinalities drawn from
    * `minCard`–`maxCard`; position i holds the rank-(i+1) tuple.
    */
  def index(seed: Long, n: Int = 40, m: Int = 4, maxCard: Int = 3, minCard: Int = 2): DatasetIndex = {
    val rnd = new Random(seed)
    val cards = IndexedSeq.fill(m)(minCard + rnd.nextInt(maxCard - minCard + 1))
    val rows = Array.fill(n)(Array.tabulate(m)(a => rnd.nextInt(cards(a))))
    val names = IndexedSeq.tabulate(m)(i => s"A$i")
    val doms = cards.map(c => IndexedSeq.tabulate(c)(_.toString))
    new DatasetIndex(rows, cards, names, doms)
  }

  /** Random non-decreasing step bounds for Problem 3.1. */
  def stepBound(seed: Long, kMax: Int): GlobalLowerBound = {
    val rnd = new Random(seed * 31 + 1)
    val step = 1 + rnd.nextInt(5)
    val base = 1 + rnd.nextInt(3)
    GlobalLowerBound(k => (base + (k / step)).toDouble)
  }

  /** Random step bounds for Problem 3.1 that rise and fall, by up to 4 at
    * one k: steps of 1–6 positions at levels 0–5.
    */
  def wavyBound(seed: Long, kMax: Int): GlobalLowerBound = {
    val rnd = new Random(seed * 17 + 5)
    val levels = Iterator
      .continually(Seq.fill(1 + rnd.nextInt(6))(rnd.nextInt(6).toDouble))
      .flatten
      .take(kMax + 1)
      .toVector
    GlobalLowerBound(levels)
  }
}

/** Batches for the counting kernel's tests: dataset sizes and k values
  * on both sides of a 64-bit word boundary, and batch orders that reuse
  * or invalidate the kernel's parent scratch buffer.
  */
object KernelBatches {
  val Sizes: Seq[Int] = Seq(1, 63, 64, 65, 127, 128, 129, 200)

  def ks(n: Int): Seq[Int] = Seq(1, 63, 64, 65, n)

  /** Named batches over every pattern of the schema, root and full width
    * included: BFS order (the children of one node adjacent), shuffled,
    * siblings of different parents interleaved, and shuffled with
    * repeats, some of them back to back.
    */
  def batches(domainSizes: IndexedSeq[Int], rnd: Random): Seq[(String, Vector[Pattern])] = {
    val all = Iterator
      .iterate(Vector(Pattern.root(domainSizes.length)))(_.flatMap(_.searchTreeChildren(domainSizes)))
      .takeWhile(_.nonEmpty)
      .flatten
      .toVector
    val siblings = all.filterNot(_.isRoot).groupBy(p => p.vals.updated(p.maxIdx, Pattern.Wildcard)).values.toVector
    val interleaved = (0 until siblings.map(_.size).max).toVector.flatMap(i => siblings.flatMap(_.lift(i)))
    val repeated = rnd.shuffle(all ++ all).flatMap(p => if (rnd.nextBoolean()) Vector(p, p) else Vector(p))
    Seq("bfs" -> all, "shuffled" -> rnd.shuffle(all), "interleaved" -> interleaved, "repeated" -> repeated)
  }

  /** Rows for the parallel path: 64·65+1 tuples over six attributes of
    * domain 4. Its batches hold 5^6 (interleaved: 5^6 − 1) patterns or
    * more, times ⌈n/64⌉ = 66 words: above [[DatasetIndex.ParallelWork]].
    */
  def largeIndex(seed: Long): DatasetIndex =
    RandomData.index(seed, n = 64 * 65 + 1, m = 6, maxCard = 4, minCard = 4)

  /** Words per bitset of `ix`: a batch's work is its size times this. */
  def words(ix: DatasetIndex): Long = (ix.size + 63L) / 64

  /** Naive counts by row scans, one scan per distinct pattern: for each
    * pattern, the 0-based ranks of the tuples that match it, in order.
    * s_D is their number, the top-k count the number below k.
    */
  def matchingRanks(ix: DatasetIndex, patterns: Iterable[Pattern]): Map[Pattern, Array[Int]] =
    patterns.iterator.distinct.map(p => p -> ix.rows.indices.filter(i => p.matches(ix.rows(i))).toArray).toMap

  /** `(s_D, top-k count)` of `p` from [[matchingRanks]]. */
  def naive(ranks: Map[Pattern, Array[Int]], p: Pattern, k: Int): (Int, Int) = {
    val r = ranks(p)
    (r.length, r.count(_ < k))
  }

  /** `sD` input for [[PatternCounter.countInto]] with a random mix of
    * known and unknown slots, both present. A known slot holds a distinct
    * value no s_D can take, so a kernel that writes or mixes up a known
    * slot is caught.
    */
  def mixedSizes(slots: Int, rnd: Random): Array[Int] = {
    val sD = Array.tabulate(slots)(i => if (rnd.nextBoolean()) Int.MaxValue - i else PatternCounter.Unknown)
    sD(0) = Int.MaxValue
    sD(slots - 1) = PatternCounter.Unknown
    sD
  }

  /** A parent of a [[PatternCounter.countWave]] wave. */
  final case class WaveParent(attrs: Array[Int], vals: Array[Int], sD: Long) extends PatternCounter.Parent

  /** `p` as a wave parent, with its s_D from [[matchingRanks]]. */
  def parent(ranks: Map[Pattern, Array[Int]], p: Pattern): WaveParent = {
    val as = p.attrs.toArray
    WaveParent(as, as.map(p.vals), ranks(p).length.toLong)
  }

  /** The slots of a wave over `parents`: their search-tree children, in order. */
  def children(domainSizes: IndexedSeq[Int], parents: Seq[Pattern]): Vector[Pattern] =
    parents.iterator.flatMap(_.searchTreeChildren(domainSizes)).toVector

  /** k at both sides of the first two word boundaries, 0 and `n`. */
  def waveKs(n: Int): Seq[Int] = (Seq(0, 1, 63, 64, 65, 127, 128, 129) :+ n).distinct

  /** Slots of a [[mixedSizes]] `preset` whose results from
    * [[PatternCounter.countInto]] are wrong: a known s_D not left as it
    * was, an unknown one not equal to the naive count, or a top-k count
    * not equal to the naive one.
    */
  def wrongSlots(
      ranks: Map[Pattern, Array[Int]],
      batch: IndexedSeq[Pattern],
      k: Int,
      preset: Array[Int],
      sD: Array[Int],
      topK: Array[Int],
  ): Seq[Int] = batch.indices.filter { i =>
    val (d, t) = naive(ranks, batch(i), k)
    topK(i) != t || sD(i) != (if (preset(i) >= 0) preset(i) else d)
  }
}

/** Both counts of single patterns, through the index's pattern path. */
object IndexCounts {
  implicit final class PatternSizes(private val ix: DatasetIndex) extends AnyVal {

    /** `(s_D(p), s_{R^k(D)}(p))`. */
    def sizes(p: Pattern, k: Int): (Int, Int) = {
      val d = new Array[Int](1)
      val t = new Array[Int](1)
      ix.countBatch(Vector(p), k, d, t)
      (d(0), t(0))
    }

    /** s_D(p): number of tuples in D satisfying `p`. */
    def sizeD(p: Pattern): Int = sizes(p, 0)._1
  }
}

/** Delegating counter that records the size of every batch it was asked
  * for, in call order.
  */
final class BatchLogCounter(inner: PatternCounter) extends PatternCounter {
  val sizes = scala.collection.mutable.ArrayBuffer.empty[Int]
  def maxBatch: Int = sizes.max
  override def width: Int = inner.width
  override def domainSizes: IndexedSeq[Int] = inner.domainSizes
  override def datasetSize: Long = inner.datasetSize
  override def countBatch(patterns: Seq[Pattern], k: Int): Map[Pattern, (Long, Long)] = {
    sizes += patterns.size
    inner.countBatch(patterns, k)
  }
  override def rankedRow(rank: Int): Array[Int] = inner.rankedRow(rank)
}

/** Delegating counter that records, for every [[countInto]] call, the
  * patterns whose s_D the caller did not know (the ones whose s_D the
  * call counts) and those whose s_D it passed in.
  */
final class SizeLogCounter(inner: PatternCounter) extends PatternCounter {
  val unknown = scala.collection.mutable.ArrayBuffer.empty[Vector[Pattern]]
  val known = scala.collection.mutable.ArrayBuffer.empty[Vector[Pattern]]
  override def width: Int = inner.width
  override def domainSizes: IndexedSeq[Int] = inner.domainSizes
  override def datasetSize: Long = inner.datasetSize
  override def countBatch(patterns: Seq[Pattern], k: Int): Map[Pattern, (Long, Long)] =
    inner.countBatch(patterns, k)
  override def countInto(patterns: IndexedSeq[Pattern], k: Int, sD: Array[Int], topK: Array[Int]): Unit = {
    val (u, kn) = patterns.indices.partition(sD(_) < 0)
    unknown += u.map(patterns).toVector
    known += kn.map(patterns).toVector
    inner.countInto(patterns, k, sD, topK)
  }
  override def rankedRow(rank: Int): Array[Int] = inner.rankedRow(rank)

  /** The patterns whose s_D was counted, over every call so far. */
  def sizeCounted: Vector[Pattern] = unknown.toVector.flatten

  def clear(): Unit = {
    unknown.clear()
    known.clear()
  }
}

/** Delegating counter that records the k of every batch holding a
  * level-1 pattern. Only a search from the root counts those, so this
  * lists the k at which a run searched afresh.
  */
final class RootSearchCounter(inner: PatternCounter) extends PatternCounter {
  val rootSearchKs = scala.collection.mutable.ArrayBuffer.empty[Int]
  override def width: Int = inner.width
  override def domainSizes: IndexedSeq[Int] = inner.domainSizes
  override def datasetSize: Long = inner.datasetSize
  override def countBatch(patterns: Seq[Pattern], k: Int): Map[Pattern, (Long, Long)] = {
    if (patterns.exists(_.level == 1)) rootSearchKs += k
    inner.countBatch(patterns, k)
  }
  override def rankedRow(rank: Int): Array[Int] = inner.rankedRow(rank)
}

/** Delegating counter that sleeps `sleepMillis` on the first read of the
  * tuple ranked `slowRank`: makes a deadline pass between two k steps.
  */
final class SlowRowCounter(inner: PatternCounter, slowRank: Int, sleepMillis: Long) extends PatternCounter {
  private var slept = false
  override def width: Int = inner.width
  override def domainSizes: IndexedSeq[Int] = inner.domainSizes
  override def datasetSize: Long = inner.datasetSize
  override def countBatch(patterns: Seq[Pattern], k: Int): Map[Pattern, (Long, Long)] =
    inner.countBatch(patterns, k)
  override def rankedRow(rank: Int): Array[Int] = {
    if (rank == slowRank && !slept) {
      slept = true
      Thread.sleep(sleepMillis)
    }
    inner.rankedRow(rank)
  }
}

/** Counter whose `expireAt`-th [[countInto]] call spins until `budget`
  * reads expired, then counts through a [[LocalPatternCounter]]: a run
  * given the same budget sees it expire inside that call. It serves the
  * searches' [[countInto]] path only; the `Map` API throws.
  */
final class ExpiringCounter(ix: DatasetIndex, expireAt: Int, budget: Budget) extends PatternCounter {
  private val inner = new LocalPatternCounter(ix)
  /** `countInto` calls so far. */
  var calls = 0
  /** Whether the budget had already expired when the `expireAt`-th call began. */
  var expiredBefore = false
  override def width: Int = inner.width
  override def domainSizes: IndexedSeq[Int] = inner.domainSizes
  override def datasetSize: Long = inner.datasetSize
  override def countBatch(patterns: Seq[Pattern], k: Int): Map[Pattern, (Long, Long)] =
    throw new UnsupportedOperationException("the searches count through countInto")
  override def countInto(patterns: IndexedSeq[Pattern], k: Int, sD: Array[Int], topK: Array[Int]): Unit = {
    calls += 1
    if (calls == expireAt) {
      expiredBefore = budget.expired
      while (!budget.expired) Thread.onSpinWait()
    }
    inner.countInto(patterns, k, sD, topK)
  }
  override def rankedRow(rank: Int): Array[Int] = inner.rankedRow(rank)
}

/** Literal truths about the patterns of `ix` at one k, from row scans, for
  * tests that pin a case of the clean-parent rule of `Res[k]`: a pattern
  * is clean at k if it and all its sub-patterns are unbiased, with
  * `s_D ≥ τ_s`; a biased pattern is most general iff its immediate parents
  * are all clean.
  */
final class PatternStates(ix: DatasetIndex, bound: BiasBound, tauS: Long) {
  import IndexCounts._

  def large(q: Pattern): Boolean = ix.sizeD(q) >= tauS

  def biased(q: Pattern, k: Int): Boolean = {
    val (d, t) = ix.sizes(q, k)
    d >= tauS && bound.biased(t, d, k)
  }

  /** Proper sub-patterns of `q`, the root excluded. */
  def subPatterns(q: Pattern): Seq[Pattern] = {
    val as = q.attrs
    (1 until (1 << as.size) - 1).map { mask =>
      Pattern.of(q.width, as.indices.filter(i => (mask >> i & 1) == 1).map(i => as(i) -> q.vals(as(i))): _*)
    }
  }

  def clean(q: Pattern, k: Int): Boolean =
    q.isRoot || (large(q) && !biased(q, k) && subPatterns(q).forall(!biased(_, k)))

  /** `q`'s search-tree ancestors below it, the root excluded: its prefixes in attribute order. */
  def prefixes(q: Pattern): Seq[Pattern] = {
    val as = q.attrs
    (1 until as.size).map(j => Pattern.of(q.width, as.take(j).map(a => a -> q.vals(a)): _*))
  }

  /** Whether a search from the root reaches `q` at `k`: no prefix is biased. */
  def reached(q: Pattern, k: Int): Boolean = large(q) && prefixes(q).forall(!biased(_, k))

  /** `q` with one more constraint and `s_D ≥ τ_s`. */
  def latticeChildren(q: Pattern): Seq[Pattern] =
    for {
      a <- 0 until q.width if q.vals(a) == Pattern.Wildcard
      v <- 0 until ix.domainSizes(a)
      c = Pattern(q.vals.updated(a, v)) if large(c)
    } yield c

  def mostGeneral(q: Pattern, k: Int): Boolean = biased(q, k) && q.parents.forall(clean(_, k))
}

/** Witnesses of the two ways the clean-parent rule can go wrong when
  * nodes outlive one k, found from [[PatternStates]] alone.
  */
object RuleWitnesses {

  /** `(k, q, p)`: `q` is clean at `k - 1` and biased at `k`, so a search
    * at `k` cuts it, while its lattice child `p` is biased and reached at
    * `k` and every other immediate parent of `p` is clean. A flag `q`
    * kept from `k - 1` would put `p` in `Res[k]`.
    */
  def staleParent(ix: DatasetIndex, bound: BiasBound, tauS: Long, kMin: Int, kMax: Int): Seq[(Int, Pattern, Pattern)] = {
    val st = new PatternStates(ix, bound, tauS)
    for {
      k <- (kMin + 1) to kMax
      q <- BruteForce.tauRegion(ix, tauS) if st.clean(q, k - 1) && st.biased(q, k)
      p <- st.latticeChildren(q)
      if st.biased(p, k) && st.reached(p, k) && p.parents.forall(r => r == q || st.clean(r, k))
    } yield (k, q, p)
  }

  /** `(k, n, b)` for an incremental run over `[kMin, kMax]` whose bound
    * does not fall: the search resumed at `k` below a recovered node that
    * was never expanded creates `n`, clean at `k`, and `n` is the last
    * immediate parent of `b` to turn clean, so `b`, tracked and biased
    * since before `k`, enters `Res[k]`.
    */
  def resumedParent(ix: DatasetIndex, bound: BiasBound, tauS: Long, kMin: Int, kMax: Int): Seq[(Int, Pattern, Pattern)] = {
    val st = new PatternStates(ix, bound, tauS)
    val region = BruteForce.tauRegion(ix, tauS).sortBy(_.level)
    def searchParent(x: Pattern) = Pattern(x.vals.updated(x.maxIdx, Pattern.Wildcard))
    // The engine's tracked nodes at the end of each k: a node is tracked
    // once its search-tree parent has been open, and a tracked node that
    // is not biased is open.
    val opened = scala.collection.mutable.Set.empty[Pattern]
    var trackedBefore = Set.empty[Pattern]
    var openedBefore = Set.empty[Pattern]
    val found = Seq.newBuilder[(Int, Pattern, Pattern)]
    for (k <- kMin to kMax) {
      val tracked = scala.collection.mutable.Set.empty[Pattern]
      for (x <- region if x.level == 1 || opened(searchParent(x))) {
        tracked += x
        if (!st.biased(x, k)) opened += x
      }
      if (k > kMin) for {
        b <- region if st.mostGeneral(b, k) && !st.mostGeneral(b, k - 1) && st.biased(b, k - 1) && trackedBefore(b)
        n <- b.parents if n.level >= 2
        r = searchParent(n) if trackedBefore(r) && !openedBefore(r) && !st.biased(r, k)
      } found += ((k, n, b))
      trackedBefore = tracked.toSet
      openedBefore = opened.toSet
    }
    found.result()
  }
}
