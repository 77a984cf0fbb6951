package repro.core

import scala.collection.immutable.ArraySeq

/** A pattern (Definition 2.2): a value assignment to a subset of the
  * categorical attributes of a dataset.
  *
  * Represented as a fixed-width vector with one slot per attribute;
  * [[Pattern.Wildcard]] (-1) marks attributes not constrained by the
  * pattern. Attribute order is the dataset's attribute order, which is
  * also the order used by the search tree (Definition 4.1).
  *
  * @param vals value index per attribute, or [[Pattern.Wildcard]]
  */
final case class Pattern(vals: Vector[Int]) {

  /** The case-class hash, computed once: patterns key the counters'
    * result maps and the searches' hash sets, which would otherwise hash
    * the boxed `vals` on every probe.
    */
  override val hashCode: Int = Pattern.caseClassHash(vals)

  /** Same `vals`; compares the cached hashes first, then the values unboxed. */
  override def equals(other: Any): Boolean = other match {
    case q: Pattern =>
      (q eq this) || (q.hashCode == hashCode && q.vals.length == vals.length && {
        var i = 0
        while (i < vals.length && vals(i) == q.vals(i)) i += 1
        i == vals.length
      })
    case _ => false
  }

  /** Number of attributes in the dataset's schema (not the pattern). */
  def width: Int = vals.length

  /** Indices of the attributes this pattern constrains. */
  def attrs: Seq[Int] = vals.indices.filter(vals(_) != Pattern.Wildcard)

  /** Maximal constrained attribute index, or -1 for the empty pattern.
    * This is `idx(Attr(p))` in Definition 4.1.
    */
  def maxIdx: Int = {
    var i = vals.length - 1
    while (i >= 0 && vals(i) == Pattern.Wildcard) i -= 1
    i
  }

  /** True iff the encoded tuple `row` satisfies this pattern. */
  def matches(row: Array[Int]): Boolean = {
    var i = 0
    while (i < vals.length) {
      val v = vals(i)
      if (v != Pattern.Wildcard && row(i) != v) return false
      i += 1
    }
    true
  }

  /** Children in the search tree (Definition 4.1): extend with a single
    * attribute whose index is larger than [[maxIdx]], one child per value
    * in that attribute's domain.
    *
    * @param domainSizes cardinality of each attribute's active domain
    */
  def searchTreeChildren(domainSizes: IndexedSeq[Int]): Seq[Pattern] = {
    val first = maxIdx + 1
    var size = 0
    var a = first
    while (a < width) { size += domainSizes(a); a += 1 }
    val children = new Array[Pattern](size)
    var i = 0
    a = first
    while (a < width) {
      var v = 0
      while (v < domainSizes(a)) { children(i) = Pattern(vals.updated(a, v)); v += 1; i += 1 }
      a += 1
    }
    ArraySeq.unsafeWrapArray(children)
  }

  /** Human-readable form, e.g. `{School=1, Address=0}`. */
  def render(attrNames: Seq[String], domains: Seq[Seq[String]]): String =
    attrs
      .map(a => s"${attrNames(a)}=${domains(a)(vals(a))}")
      .mkString("{", ", ", "}")

  override def toString: String =
    attrs.map(a => s"$a=${vals(a)}").mkString("{", ",", "}")
}

object Pattern {
  /** Slot value for an unconstrained attribute. */
  final val Wildcard: Int = -1

  /** `MurmurHash3.caseClassHash` of `Pattern(vals)`, computed on the
    * unboxed values: the product seed mixed with the name's hash and with
    * `vals`'s sequence hash, which hashes two or more values in a non-zero
    * arithmetic progression as a range. Spelled out because the search
    * hashes every child it creates: the generic product and sequence
    * hashes box each value, and their compiled code is shared with the
    * rest of the JVM (Spark's planner hashes its case classes with them),
    * so how soon a detection ran at full speed depended on what ran
    * before it.
    */
  private def caseClassHash(vals: Vector[Int]): Int = {
    import scala.util.hashing.MurmurHash3.{finalizeHash, mix, productSeed, seqSeed}
    val l = vals.length
    val seqHash =
      if (l == 0) finalizeHash(seqSeed, 0)
      else if (l == 1) finalizeHash(mix(seqSeed, vals(0)), 1)
      else {
        val h0 = mix(seqSeed, vals(0))
        val step = vals(1) - vals(0)
        var h = h0
        var prev = vals(1)
        var i = 2
        while (i < l && step != 0 && vals(i) - prev == step) { h = mix(h, prev); prev = vals(i); i += 1 }
        // finalizeHash(_, 0) is the bare avalanche step
        if (i == l) finalizeHash(mix(mix(h0, step), prev), 0)
        else {
          h = mix(h, prev)
          while (i < l) { h = mix(h, vals(i)); i += 1 }
          finalizeHash(h, l)
        }
      }
    finalizeHash(mix(mix(productSeed, "Pattern".hashCode), seqHash), 1)
  }

  /** The empty (most general) pattern over `width` attributes. */
  def root(width: Int): Pattern = Pattern(Vector.fill(width)(Wildcard))

  /** Build a pattern from (attrIdx, valueIdx) pairs. */
  def of(width: Int, assignments: (Int, Int)*): Pattern = {
    var v = Vector.fill(width)(Wildcard)
    assignments.foreach { case (a, x) => v = v.updated(a, x) }
    Pattern(v)
  }
}
