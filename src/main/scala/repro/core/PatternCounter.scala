package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Counting engine used by the search algorithms.
  *
  * The searches are engine-agnostic: each BFS level asks for the dataset
  * size and the top-k size of a batch of candidate patterns. Engines:
  *
  *  - [[LocalPatternCounter]] — in-memory word-array index, for the
  *    fine-grained incremental algorithms and the paper-faithful timing
  *    benches;
  *  - [[SparkPatternCounter]] — one Catalyst aggregation per batch over
  *    the ranked DataFrame, for distributed counting at scale.
  *
  * Both are tested for agreement with each other and with DuckDB.
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
    * `R(D)[rank]` in the paper. The incremental algorithms use it to
    * decide which tracked patterns the newly admitted tuple satisfies.
    */
  def rankedRow(rank: Int): Array[Int]

  /** Does the tuple ranked `rank` satisfy `p`? */
  final def tupleSatisfies(rank: Int, p: Pattern): Boolean = p.matches(rankedRow(rank))
}

/** Bitset counter over a [[DatasetIndex]]: a batch is one call of
  * [[DatasetIndex.countBatch]], which walks it in order and reuses the
  * parent's AND across consecutive siblings, so each search-tree child
  * costs one AND + popcount pass over the index words.
  */
final class LocalPatternCounter(val index: DatasetIndex) extends PatternCounter {
  override def width: Int = index.width
  override def domainSizes: IndexedSeq[Int] = index.domainSizes
  override def datasetSize: Long = index.size.toLong

  override def countBatch(patterns: Seq[Pattern], k: Int): Map[Pattern, (Long, Long)] = {
    val sD = new Array[Int](patterns.size)
    val topK = new Array[Int](patterns.size)
    index.countBatch(patterns, k, sD, topK)
    val out = Map.newBuilder[Pattern, (Long, Long)]
    var i = 0
    patterns.foreach { p =>
      out += p -> (sD(i).toLong, topK(i).toLong)
      i += 1
    }
    out.result()
  }

  override def rankedRow(rank: Int): Array[Int] = index.rows(rank - 1)
}

/** Distributed counter: a batch of patterns is counted with a single
  * DataFrame aggregation — `sum(when(pred, 1))` for the dataset size and
  * `sum(when(pred AND rank <= k, 1))` for the top-k size — over the
  * ranked, integer-encoded input.
  *
  * @param df       encoded dataset; one integer column per attribute plus
  *                 a 1-based rank column
  * @param attrCols attribute column names, in schema order
  * @param rankCol  rank column name
  */
final class SparkPatternCounter(
    df: DataFrame,
    attrCols: Seq[String],
    rankCol: String,
    override val domainSizes: IndexedSeq[Int],
) extends PatternCounter {

  private val cached =
    df.select((attrCols :+ rankCol).map(c => col(c).cast("int").alias(c)): _*).cache()
  override val datasetSize: Long = cached.count()
  override def width: Int = attrCols.length

  /** Patterns per aggregation call: 2 output columns per pattern. */
  private val ChunkSize = 192

  private def predicate(p: Pattern): Column =
    p.attrs.foldLeft(lit(true))((acc, a) => acc && (col(attrCols(a)) === lit(p.vals(a))))

  override def countBatch(patterns: Seq[Pattern], k: Int): Map[Pattern, (Long, Long)] =
    patterns.distinct
      .grouped(ChunkSize)
      .flatMap { chunk =>
        val exprs = chunk.zipWithIndex.flatMap { case (p, i) =>
          val pred = predicate(p)
          Seq(
            sum(when(pred, 1L).otherwise(0L)).alias(s"d$i"),
            sum(when(pred && col(rankCol) <= lit(k), 1L).otherwise(0L)).alias(s"t$i"),
          )
        }
        val row = cached.agg(exprs.head, exprs.tail: _*).collect()(0)
        chunk.zipWithIndex.map { case (p, i) =>
          def v(j: Int): Long = if (row.isNullAt(j)) 0L else row.getLong(j)
          p -> (v(2 * i), v(2 * i + 1))
        }
      }
      .toMap

  // Ranked rows are only needed by the incremental algorithms; collect
  // them once, lazily, ordered by rank.
  private lazy val collectedRows: Array[Array[Int]] =
    cached
      .orderBy(col(rankCol))
      .collect()
      .map(r => Array.tabulate(attrCols.length)(i => r.getInt(i)))

  override def rankedRow(rank: Int): Array[Int] = collectedRows(rank - 1)

  /** Release the cached projection. */
  def unpersist(): Unit = cached.unpersist()
}
