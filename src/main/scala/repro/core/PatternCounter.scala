package repro.core

/** Counting interface used by the search algorithms.
  *
  * Each BFS level asks for the dataset size and the top-k size of a batch
  * of candidate patterns. The one engine is [[LocalPatternCounter]], an
  * in-memory word-array index checked against naive scans and DuckDB;
  * tests and the benchmark tracer substitute their own implementations.
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

  /** Counts `patterns` into the same slots of caller-owned arrays: the
    * searches' entry point. s_D does not depend on k, so a caller that
    * already knows a pattern's s_D passes it in `sD`; a slot holding
    * [[PatternCounter.Unknown]] (any negative value) is unknown.
    * `topK(i)` receives s_{R^k(D)} of every pattern, and `sD(i)` receives
    * s_D of the unknown ones; a known slot of `sD` is left as it is.
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

  /** Encoded attribute values of the tuple ranked `rank` (1-based) —
    * `R(D)[rank]` in the paper. The incremental engine walks the tracked
    * patterns the newly admitted tuple satisfies along it.
    */
  def rankedRow(rank: Int): Array[Int]
}

object PatternCounter {

  /** An `sD` slot of [[PatternCounter.countInto]] whose s_D is not known yet. */
  final val Unknown: Int = -1
}

/** Bitset counter over a [[DatasetIndex]]: a batch is one call of
  * [[DatasetIndex.countInto]], which walks it in order and reuses the
  * parent's AND across consecutive siblings, so each search-tree child
  * costs one AND + popcount pass over the index words, or over the first
  * ⌈k/64⌉ words when its s_D is known; a large batch is counted in
  * parallel chunks. [[countBatch]] is the same kernel with every s_D
  * unknown.
  */
final class LocalPatternCounter(val index: DatasetIndex) extends PatternCounter {
  override def width: Int = index.width
  override def domainSizes: IndexedSeq[Int] = index.domainSizes
  override def datasetSize: Long = index.size.toLong

  override def countInto(patterns: IndexedSeq[Pattern], k: Int, sD: Array[Int], topK: Array[Int]): Unit =
    index.countInto(patterns, k, sD, topK)

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
