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

  /** Encoded attribute values of the tuple ranked `rank` (1-based) —
    * `R(D)[rank]` in the paper. The incremental engine walks the tracked
    * patterns the newly admitted tuple satisfies along it.
    */
  def rankedRow(rank: Int): Array[Int]
}

/** Bitset counter over a [[DatasetIndex]]: a batch is one call of
  * [[DatasetIndex.countBatch]], which walks it in order and reuses the
  * parent's AND across consecutive siblings, so each search-tree child
  * costs one AND + popcount pass over the index words; a large batch is
  * counted in parallel chunks.
  */
final class LocalPatternCounter(val index: DatasetIndex) extends PatternCounter {
  override def width: Int = index.width
  override def domainSizes: IndexedSeq[Int] = index.domainSizes
  override def datasetSize: Long = index.size.toLong

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
