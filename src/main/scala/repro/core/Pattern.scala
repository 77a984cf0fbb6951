package repro.core

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
  override val hashCode: Int = scala.util.hashing.MurmurHash3.caseClassHash(this)

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

  /** Number of constrained attributes (the pattern's level in the graph). */
  def level: Int = vals.count(_ != Pattern.Wildcard)

  /** Maximal constrained attribute index, or -1 for the empty pattern.
    * This is `idx(Attr(p))` in Definition 4.1.
    */
  def maxIdx: Int = {
    var i = vals.length - 1
    while (i >= 0 && vals(i) == Pattern.Wildcard) i -= 1
    i
  }

  /** True iff this pattern constrains no attribute (the root). */
  def isRoot: Boolean = maxIdx < 0

  /** True iff `this` is equal to or more general than `other`:
    * every constraint of `this` is also a constraint of `other`.
    * (`this` ⊆ `other` in the paper's pattern-set notation.)
    */
  def subsumes(other: Pattern): Boolean = {
    require(other.width == width, s"width mismatch: $width vs ${other.width}")
    var i = 0
    while (i < vals.length) {
      val v = vals(i)
      if (v != Pattern.Wildcard && other.vals(i) != v) return false
      i += 1
    }
    true
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

  /** True iff `this` is strictly more general than `other` (proper subset). */
  def strictlySubsumes(other: Pattern): Boolean =
    this != other && subsumes(other)

  /** Children in the search tree (Definition 4.1): extend with a single
    * attribute whose index is larger than [[maxIdx]], one child per value
    * in that attribute's domain.
    *
    * @param domainSizes cardinality of each attribute's active domain
    */
  def searchTreeChildren(domainSizes: IndexedSeq[Int]): Seq[Pattern] =
    for {
      a <- (maxIdx + 1) until width
      v <- 0 until domainSizes(a)
    } yield Pattern(vals.updated(a, v))

  /** Parents in the pattern graph: drop one constrained attribute. */
  def parents: Seq[Pattern] =
    attrs.map(a => Pattern(vals.updated(a, Pattern.Wildcard)))

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

  /** The empty (most general) pattern over `width` attributes. */
  def root(width: Int): Pattern = Pattern(Vector.fill(width)(Wildcard))

  /** Build a pattern from (attrIdx, valueIdx) pairs. */
  def of(width: Int, assignments: (Int, Int)*): Pattern = {
    var v = Vector.fill(width)(Wildcard)
    assignments.foreach { case (a, x) => v = v.updated(a, x) }
    Pattern(v)
  }
}
