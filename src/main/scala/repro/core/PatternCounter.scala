package repro.core

/** Counting interface used by the search algorithms.
  *
  * Each BFS level asks for the dataset size and the top-k size of a batch
  * of candidate patterns. The one engine is [[LocalPatternCounter]], an
  * in-memory word-array index checked against naive scans and DuckDB;
  * tests and the benchmark tracer substitute their own implementations.
  *
  * The searches count through [[countWave]], which names a wave by its
  * parents; a counter that overrides only [[countInto]] or [[countBatch]]
  * sees the same wave as one batch of patterns.
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

  /** Counts `patterns` into the same slots of caller-owned arrays. s_D
    * does not depend on k, so a caller that already knows a pattern's s_D
    * passes it in `sD`; a slot holding [[PatternCounter.Unknown]] (any
    * negative value) is unknown. `topK(i)` receives s_{R^k(D)} of every
    * pattern, and `sD(i)` receives s_D of the unknown ones; a known slot
    * of `sD` is left as it is.
    *
    * The default goes through one [[countBatch]] call with every pattern,
    * so a counter that overrides only [[countBatch]] sees each batch
    * whole; [[LocalPatternCounter]] counts a known slot's top-k alone.
    */
  def countInto(patterns: IndexedSeq[Pattern], k: Int, sD: Array[Int], topK: Array[Int]): Unit = {
    val counts = countBatch(patterns, k)
    var i = 0
    while (i < patterns.length) {
      val (d, t) = counts(patterns(i))
      if (sD(i) < 0) sD(i) = d.toInt
      topK(i) = t.toInt
      i += 1
    }
  }

  /** Counts one search wave, given by its parents: the searches' entry
    * point. The wave's slots are each parent's search-tree children
    * (Definition 4.1) in [[Pattern.searchTreeChildren]]'s order, the
    * parents one after the other: every (attribute `a`, value `v`) with
    * `a` above the parent's last constrained attribute, `a` ascending,
    * then `v`. `sD` and `topK` line up with those slots as in
    * [[countInto]], known s_D passed in and kept.
    *
    * The default builds the children's patterns and makes one
    * [[countInto]] call with all of them, so a counter that overrides
    * only [[countInto]] or [[countBatch]] sees each wave as one batch;
    * [[LocalPatternCounter]] counts it from the parents' constraints and
    * builds no pattern.
    */
  def countWave(parents: IndexedSeq[PatternCounter.Parent], k: Int, sD: Array[Int], topK: Array[Int]): Unit = {
    val patterns = parents.flatMap { q =>
      Pattern.of(width, q.attrs.indices.map(i => q.attrs(i) -> q.vals(i)): _*).searchTreeChildren(domainSizes)
    }
    countInto(patterns, k, sD, topK)
  }

  /** Encoded attribute values of the tuple ranked `rank` (1-based) —
    * `R(D)[rank]` in the paper. The incremental engine walks the tracked
    * patterns the newly admitted tuple satisfies along it.
    */
  def rankedRow(rank: Int): Array[Int]
}

object PatternCounter {

  /** An `sD` slot of [[PatternCounter.countInto]] whose s_D is not known yet. */
  final val Unknown: Int = -1

  /** A parent of a [[PatternCounter.countWave]] wave: the pattern with
    * value `vals(i)` on attribute `attrs(i)`, `attrs` strictly ascending,
    * and its s_D, the number of tuples that satisfy it.
    */
  trait Parent {
    def attrs: Array[Int]
    def vals: Array[Int]
    def sD: Long
  }
}

/** Bitset counter over a [[DatasetIndex]]: a wave is one call of
  * [[DatasetIndex.countWave]] and a batch of patterns one call of
  * [[DatasetIndex.countInto]]. Both keep a stack of the parents' ANDs, so
  * each search-tree child costs one AND + popcount pass over the index
  * words, or over the first ⌈k/64⌉ words when its s_D is known; a large
  * wave or batch is counted in parallel chunks. [[countBatch]] is the
  * pattern path with every s_D unknown.
  */
final class LocalPatternCounter(val index: DatasetIndex) extends PatternCounter {
  override def width: Int = index.width
  override def domainSizes: IndexedSeq[Int] = index.domainSizes
  override def datasetSize: Long = index.size.toLong

  override def countInto(patterns: IndexedSeq[Pattern], k: Int, sD: Array[Int], topK: Array[Int]): Unit =
    index.countInto(patterns, k, sD, topK)

  override def countWave(parents: IndexedSeq[PatternCounter.Parent], k: Int, sD: Array[Int], topK: Array[Int]): Unit =
    index.countWave(parents, k, sD, topK)

  override def countBatch(patterns: Seq[Pattern], k: Int): Map[Pattern, (Long, Long)] = {
    val ps = patterns.toIndexedSeq // no copy for the BFS's Vector frontiers
    val sD = new Array[Int](ps.length)
    val topK = new Array[Int](ps.length)
    index.countBatch(ps, k, sD, topK)
    val out = Map.newBuilder[Pattern, (Long, Long)]
    var i = 0
    while (i < ps.length) {
      out += ps(i) -> (sD(i).toLong, topK(i).toLong)
      i += 1
    }
    out.result()
  }

  override def rankedRow(rank: Int): Array[Int] = index.rows(rank - 1)
}
