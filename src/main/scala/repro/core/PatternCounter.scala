package repro.core

/** Counting interface used by the search algorithms.
  *
  * Each wave of a search asks for the dataset size and the top-k size of
  * its parents' search-tree children. The one engine is
  * [[LocalPatternCounter]], an in-memory word-array index checked against
  * naive scans and DuckDB; tests and the benchmark tracer substitute
  * their own implementations.
  *
  * The searches count through [[countWave]], which names a wave by its
  * parents. [[countBatch]], the `Map` API over patterns, serves only
  * counters that look at each wave as a batch of patterns: [[countWave]]'s
  * default makes one [[countBatch]] call per wave.
  */
trait PatternCounter {

  /** Number of attributes in the schema. */
  def width: Int

  /** Cardinality of each attribute's active domain. */
  def domainSizes: IndexedSeq[Int]

  /** Total number of tuples |D|. */
  def datasetSize: Long

  /** For each pattern, `(s_D(p), s_{R^k(D)}(p))`. */
  def countBatch(patterns: Seq[Pattern], k: Int): Map[Pattern, (Long, Long)]

  /** Counts one search wave, given by its parents: the searches' entry
    * point. The wave's slots are each parent's search-tree children
    * (Definition 4.1) in [[Pattern.searchTreeChildren]]'s order, the
    * parents one after the other: every (attribute `a`, value `v`) with
    * `a` above the parent's last constrained attribute, `a` ascending,
    * then `v`. `topK(i)` receives slot `i`'s s_{R^k(D)}. s_D does not
    * depend on k, so a caller that already knows a slot's s_D passes it
    * in `sD(i)`; a slot holding [[PatternCounter.Unknown]] (any negative
    * value) receives its s_D, and a known slot is left as it is.
    *
    * The default builds the children's patterns and makes one
    * [[countBatch]] call with all of them, so a counter that overrides
    * only [[countBatch]] sees each wave as one batch;
    * [[LocalPatternCounter]] counts it from the parents' constraints and
    * builds no pattern.
    */
  def countWave(parents: IndexedSeq[PatternCounter.Parent], k: Int, sD: Array[Int], topK: Array[Int]): Unit = {
    val patterns = parents.flatMap { q =>
      Pattern.of(width, q.attrs.indices.map(i => q.attrs(i) -> q.vals(i)): _*).searchTreeChildren(domainSizes)
    }
    val counts = countBatch(patterns, k)
    var i = 0
    while (i < patterns.length) {
      val (d, t) = counts(patterns(i))
      if (sD(i) < 0) sD(i) = d.toInt
      topK(i) = t.toInt
      i += 1
    }
  }

  /** Encoded attribute values of the tuple ranked `rank` (1-based) —
    * `R(D)[rank]` in the paper. The incremental engine walks the tracked
    * patterns the newly admitted tuple satisfies along it.
    */
  def rankedRow(rank: Int): Array[Int]
}

object PatternCounter {

  /** An s_D that is not known yet: an `sD` slot of
    * [[PatternCounter.countWave]], or a [[Parent.sD]].
    */
  final val Unknown: Int = -1

  /** A parent of a [[PatternCounter.countWave]] wave: the pattern with
    * value `vals(i)` on attribute `attrs(i)`, `attrs` strictly ascending,
    * and its s_D, the number of tuples that satisfy it, or any negative
    * value ([[Unknown]]) if the caller does not know it. Only a known s_D
    * lets the counter take a last sibling's s_D by subtraction.
    */
  trait Parent {
    def attrs: Array[Int]
    def vals: Array[Int]
    def sD: Long
  }
}

/** Bitset counter over a [[DatasetIndex]]: a wave is one call of
  * [[DatasetIndex.countWave]], which keeps a stack of the parents' ANDs,
  * so each search-tree child costs one AND + popcount pass over the index
  * words, or over the first ⌈k/64⌉ words when its s_D is known; a large
  * wave is counted in parallel chunks.
  *
  * [[countBatch]] adapts the `Map` API to that kernel: each pattern is a
  * slot of its search-tree parent's wave (the pattern with its
  * [[Pattern.maxIdx]] attribute set to wildcard), and one
  * [[DatasetIndex.countWave]] call counts the batch's distinct parents,
  * each with an unknown s_D.
  */
final class LocalPatternCounter(val index: DatasetIndex) extends PatternCounter {
  override def width: Int = index.width
  override def domainSizes: IndexedSeq[Int] = index.domainSizes
  override def datasetSize: Long = index.size.toLong

  override def countWave(parents: IndexedSeq[PatternCounter.Parent], k: Int, sD: Array[Int], topK: Array[Int]): Unit =
    index.countWave(parents, k, sD, topK)

  /** The `Map` API as one wave of the patterns' distinct search-tree
    * parents (see the class doc); the root pattern needs no count.
    *
    * @throws IllegalArgumentException if `k < 0` or a pattern's width is
    *         not [[width]]
    */
  override def countBatch(patterns: Seq[Pattern], k: Int): Map[Pattern, (Long, Long)] = {
    val ps = patterns.toIndexedSeq // no copy for the default countWave's Vector
    // offset(a): number of (attribute, value) pairs on attributes below a
    val offset = domainSizes.scanLeft(0)(_ + _)
    val position = scala.collection.mutable.HashMap.empty[Pattern, Int] // a parent's place in the wave
    val wave = scala.collection.mutable.ArrayBuffer.empty[LocalPatternCounter.Parent]
    val starts = new Array[Int](ps.length + 1) // each parent's first slot, then the wave's size
    val slots = new Array[Int](ps.length) // each pattern's slot; -1 for the root
    var i = 0
    while (i < ps.length) {
      val p = ps(i)
      if (p.width != width)
        throw new IllegalArgumentException(s"pattern $p has width ${p.width}, the index has $width attributes")
      val a = p.maxIdx
      if (a < 0) slots(i) = -1
      else {
        val q = Pattern(p.vals.updated(a, Pattern.Wildcard))
        val j = position.getOrElseUpdate(q, {
          val as = q.attrs.toArray
          wave += new LocalPatternCounter.Parent(as, as.map(q.vals))
          starts(wave.length) = starts(wave.length - 1) + offset(width) - offset(q.maxIdx + 1)
          wave.length - 1
        })
        slots(i) = starts(j) + offset(a) - offset(q.maxIdx + 1) + p.vals(a)
      }
      i += 1
    }
    val sD = Array.fill(starts(wave.length))(PatternCounter.Unknown)
    val topK = new Array[Int](sD.length)
    index.countWave(wave.toIndexedSeq, k, sD, topK)
    val out = Map.newBuilder[Pattern, (Long, Long)]
    i = 0
    while (i < ps.length) {
      val s = slots(i)
      out += ps(i) -> (if (s < 0) (datasetSize, math.min(k, index.size).toLong) else (sD(s).toLong, topK(s).toLong))
      i += 1
    }
    out.result()
  }

  override def rankedRow(rank: Int): Array[Int] = index.rows(rank - 1)
}

object LocalPatternCounter {

  /** A wave parent of [[LocalPatternCounter.countBatch]]; its s_D is not known. */
  private final class Parent(val attrs: Array[Int], val vals: Array[Int]) extends PatternCounter.Parent {
    def sD: Long = PatternCounter.Unknown
  }
}
