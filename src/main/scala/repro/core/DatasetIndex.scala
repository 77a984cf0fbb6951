package repro.core

import java.util.BitSet

/** In-memory index of a ranked, categorically-encoded dataset.
  *
  * Tuples are stored in rank order (position 0 = rank 1). For every
  * (attribute, value) pair a [[java.util.BitSet]] over positions records
  * which tuples carry that value, so a pattern's support is the
  * cardinality of the AND of its attribute-value bitsets, and its count
  * in the top-k is the cardinality restricted to positions `< k`.
  *
  * @param rows        encoded tuples in rank order; `rows(i)(a)` is the
  *                    value index of attribute `a` in the rank-(i+1) tuple
  * @param domainSizes active-domain cardinality per attribute
  * @param attrNames   attribute names (for rendering)
  * @param domains     value labels per attribute (for rendering)
  */
final class DatasetIndex(
    val rows: Array[Array[Int]],
    val domainSizes: IndexedSeq[Int],
    val attrNames: IndexedSeq[String],
    val domains: IndexedSeq[IndexedSeq[String]],
) {
  require(rows.forall(_.length == domainSizes.length), "row width mismatch")

  /** Number of tuples |D|. */
  val size: Int = rows.length

  /** Number of attributes. */
  val width: Int = domainSizes.length

  private val bitsets: Array[Array[BitSet]] = {
    val bs = Array.tabulate(width)(a => Array.fill(domainSizes(a))(new BitSet(size)))
    var i = 0
    while (i < rows.length) {
      val r = rows(i)
      var a = 0
      while (a < width) {
        bs(a)(r(a)).set(i)
        a += 1
      }
      i += 1
    }
    bs
  }

  /** Bitset of rank positions whose tuples satisfy `p` (root = all). */
  def matchBits(p: Pattern): BitSet = {
    val out = new BitSet(size)
    out.set(0, size)
    p.attrs.foreach(a => out.and(bitsets(a)(p.vals(a))))
    out
  }

  /** s_D(p): number of tuples in D satisfying `p`. */
  def sizeD(p: Pattern): Int = matchBits(p).cardinality()

  /** s_{R^k(D)}(p): number of tuples among the top-k satisfying `p`. */
  def sizeTopK(p: Pattern, k: Int): Int = matchBits(p).get(0, k).cardinality()

  /** Both counts in one pass over the pattern's bitset. */
  def sizes(p: Pattern, k: Int): (Int, Int) = {
    val bits = matchBits(p)
    (bits.cardinality(), bits.get(0, k).cardinality())
  }

  /** Does the tuple ranked `rank` (1-based) satisfy `p`? */
  def tupleSatisfies(rank: Int, p: Pattern): Boolean = p.matches(rows(rank - 1))

  /** Render a pattern against this schema. */
  def render(p: Pattern): String = p.render(attrNames, domains)
}
