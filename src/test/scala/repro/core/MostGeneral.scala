package repro.core

import scala.collection.mutable
import PatternLattice._

/** Test oracle: a changing set of patterns `B` together with its most
  * general members, the split of the paper's biased set into `Res`
  * (members no other member strictly subsumes) and `DRes` (the rest), kept
  * current under deltas. It shares no code with the detectors, which
  * decide `Res` on their search trees.
  *
  * Dominance test. A member p is dominated iff one of its proper
  * sub-patterns (the root included) is also a member. Each pattern has a
  * 64-bit key, the XOR of one mixed key per (attribute, value) pair it
  * constrains, so the keys of p's `2^level − 1` proper sub-patterns are
  * walked in Gray-code order with one XOR per step and probed in a hash of
  * member keys, with no allocation per probe. Every hit is confirmed with
  * an exact [[Pattern.subsumes]]: a key collision costs time, never a
  * wrong answer. When `2^level` exceeds the member count the members are
  * scanned instead, so a deep pattern never costs more than the
  * all-pairs test.
  *
  * Upkeep. [[update]] takes the patterns that left and entered `B` and
  * re-classifies only what they can change:
  *  - an entering pattern is probed once; if it is most general, the
  *    `Res` members it strictly subsumes are evicted;
  *  - when a `Res` member leaves, the members it strictly subsumed are
  *    probed again; other members keep their status.
  * Strict supersets are found through a posting list per (attribute,
  * value) pair. [[res]] is an immutable set changed by these deltas only,
  * so successive k share one snapshot while nothing changes.
  */
final class MostGeneral {
  import MostGeneral._

  // All members of B by pattern key; a list only on a key collision.
  private val byKey = mutable.LongMap.empty[List[Member]]
  // Pair key → members constraining that (attribute, value) pair.
  private val postings = mutable.LongMap.empty[mutable.HashSet[Member]]
  private var count = 0
  private var minimal = Set.empty[Pattern]

  /** The most general members (`Res`); an immutable snapshot. */
  def res: Set[Pattern] = minimal

  /** Members of `B`, in no particular (but deterministic) order. */
  def members: Iterator[Pattern] = byKey.valuesIterator.flatMap(_.iterator.map(_.p))

  /** `B := (B − left) ∪ entered`, keeping [[res]] exact. */
  def update(left: Iterable[Pattern], entered: Iterable[Pattern]): Unit = {
    val orphans = mutable.ArrayBuffer.empty[Member]
    for (p <- left) {
      val m = remove(p)
      if ((m ne null) && minimal.contains(p)) {
        minimal -= p
        orphans += m
      }
    }
    val fresh = mutable.ArrayBuffer.empty[Member]
    for (p <- entered) {
      val m = insert(p)
      if (m ne null) fresh += m
    }
    // Every status below is decided against the final B, so order is free.
    fresh.foreach(classify)
    for (o <- orphans; x <- strictSupersets(o))
      if (!minimal.contains(x.p) && !dominated(x)) minimal += x.p
  }

  /** Decide whether the new member `m` is most general; if so, evict the
    * `Res` members it strictly subsumes.
    */
  private def classify(m: Member): Unit =
    if (!dominated(m)) {
      strictSupersets(m).foreach(x => minimal -= x.p)
      minimal += m.p
    }

  private def find(p: Pattern): Member = {
    var xs = byKey.getOrNull(keyOf(p))
    while ((xs ne null) && xs.nonEmpty) {
      if (xs.head.p == p) return xs.head
      xs = xs.tail
    }
    null
  }

  /** Insert `p`; returns its member, or null if it was already in B. */
  private def insert(p: Pattern): Member = {
    if (find(p) ne null) return null
    val m = member(p)
    val xs = byKey.getOrNull(m.key)
    byKey.update(m.key, if (xs eq null) m :: Nil else m :: xs)
    m.parts.foreach(k => postings.getOrElseUpdate(k, mutable.HashSet.empty[Member]) += m)
    count += 1
    m
  }

  /** Remove `p`; returns its member, or null if it was not in B. */
  private def remove(p: Pattern): Member = {
    val m = find(p)
    if (m eq null) return null
    val rest = byKey(m.key).filterNot(_ eq m)
    if (rest.isEmpty) byKey.remove(m.key) else byKey.update(m.key, rest)
    m.parts.foreach { k =>
      val s = postings(k)
      s -= m
      if (s.isEmpty) postings.remove(k)
    }
    count -= 1
    m
  }

  /** Is some proper sub-pattern of `m` a member? */
  private def dominated(m: Member): Boolean = {
    val parts = m.parts
    val l = parts.length
    if (l > MaxProbeLevel || (1 << l) > count)
      return byKey.valuesIterator.exists(_.exists(q => q.level < l && q.p.subsumes(m.p)))
    // Gray code: step i flips bit ntz(i); the all-ones subset is p itself.
    val all = (1 << l) - 1
    var key = 0L
    if (hit(key, m)) return true
    var i = 1
    while (i <= all) {
      key ^= parts(Integer.numberOfTrailingZeros(i))
      if ((i ^ (i >>> 1)) != all && hit(key, m)) return true
      i += 1
    }
    false
  }

  private def hit(key: Long, m: Member): Boolean = {
    var xs = byKey.getOrNull(key)
    while ((xs ne null) && xs.nonEmpty) {
      val q = xs.head
      if (q.level < m.level && q.p.subsumes(m.p)) return true
      xs = xs.tail
    }
    false
  }

  /** Members that `m` strictly subsumes, from its shortest posting list. */
  private def strictSupersets(m: Member): Seq[Member] = {
    var pool: Iterable[Member] = if (m.level == 0) byKey.values.flatten else null
    var i = 0
    while (i < m.level) {
      val s = postings.getOrElse(m.parts(i), mutable.HashSet.empty[Member])
      if ((pool eq null) || s.size < pool.size) pool = s
      i += 1
    }
    pool.iterator.filter(x => x.level > m.level && m.p.subsumes(x.p)).toSeq
  }
}

object MostGeneral {

  /** Above this level the probe would need more than 2^30 steps. */
  private final val MaxProbeLevel = 30

  private final class Member(val p: Pattern, val key: Long, val parts: Array[Long]) {
    def level: Int = parts.length
  }

  /** Mixed key of the (attribute, value) pair (splitmix64 finaliser). */
  private def pairKey(a: Int, v: Int): Long = {
    var z = (a.toLong << 32 | (v & 0xFFFFFFFFL)) + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  private def keyOf(p: Pattern): Long = {
    var key = 0L
    var a = 0
    while (a < p.width) {
      val v = p.vals(a)
      if (v != Pattern.Wildcard) key ^= pairKey(a, v)
      a += 1
    }
    key
  }

  private def member(p: Pattern): Member = {
    val parts = new Array[Long](p.level)
    var key = 0L
    var i = 0
    var a = 0
    while (a < p.width) {
      val v = p.vals(a)
      if (v != Pattern.Wildcard) {
        parts(i) = pairKey(a, v)
        key ^= parts(i)
        i += 1
      }
      a += 1
    }
    new Member(p, key, parts)
  }
}
