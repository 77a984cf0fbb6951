package repro.core

import org.scalatest.funsuite.AnyFunSuite

class DatasetIndexSpec extends AnyFunSuite {
  private val ix = RunningExample.index
  import IndexCounts._
  import RunningExample.p

  test("index has 16 tuples over 4 attributes") {
    assert(ix.size == 16 && ix.width == 4)
    assert(ix.domainSizes == IndexedSeq(2, 2, 2, 3))
  }

  test("Example 2.3: s_D({School=GP}) = 8") {
    assert(ix.sizeD(p(1 -> 0)) == 8)
  }

  test("Example 2.3: s_{R^5(D)}({School=GP}) = 1") {
    assert(ix.sizes(p(1 -> 0), 5)._2 == 1)
  }

  test("root pattern counts the whole dataset") {
    assert(ix.sizeD(Pattern.root(4)) == 16)
    assert(ix.sizes(Pattern.root(4), 7)._2 == 7)
  }

  test("single-attribute sizes match Figure 1") {
    assert(ix.sizeD(p(0 -> 0)) == 8) // Gender=F
    assert(ix.sizeD(p(0 -> 1)) == 8) // Gender=M
    assert(ix.sizeD(p(1 -> 1)) == 8) // School=MS
    assert(ix.sizeD(p(2 -> 0)) == 8) // Address=R
    assert(ix.sizeD(p(2 -> 1)) == 8) // Address=U
    assert(ix.sizeD(p(3 -> 0)) == 4) // Failures=0
    assert(ix.sizeD(p(3 -> 1)) == 8)
    assert(ix.sizeD(p(3 -> 2)) == 4)
  }

  test("Example 2.4: one GP student in the top-5") {
    assert(ix.sizes(p(1 -> 0), 5)._2 == 1)
    assert(ix.sizes(p(1 -> 1), 5)._2 == 4)
  }

  test("conjunctive pattern sizes match hand counts") {
    assert(ix.sizeD(p(0 -> 0, 1 -> 1)) == 4)          // F ∧ MS: rows 1,6,9,10
    assert(ix.sizeD(p(1 -> 1, 2 -> 0)) == 6)          // MS ∧ R
    assert(ix.sizeD(p(0 -> 1, 1 -> 1, 2 -> 0)) == 3)  // M ∧ MS ∧ R: rows 2,5,11
  }

  test("sizes returns both counts consistently") {
    for (k <- 1 to 16) {
      val (d, t) = ix.sizes(p(2 -> 1), k)
      assert(d == ix.sizeD(p(2 -> 1)))
      assert(t == ix.rows.take(k).count(p(2 -> 1).matches))
    }
  }

  test("top-k counts are monotone in k") {
    val pat = p(0 -> 0, 3 -> 1)
    val counts = (1 to 16).map(ix.sizes(pat, _)._2)
    assert(counts.zip(counts.tail).forall { case (a, b) => a <= b })
    assert(counts.last == ix.sizeD(pat))
  }

  test("rankedRow agrees with the raw Figure 1 rows") {
    val counter = new LocalPatternCounter(ix)
    // rank 1 is student 12: (F, GP, U, 0)
    assert(p(0 -> 0).matches(counter.rankedRow(1)))
    assert(p(1 -> 0, 2 -> 1).matches(counter.rankedRow(1)))
    assert(!p(3 -> 1).matches(counter.rankedRow(1)))
    // rank 5 is student 14: (M, MS, U, 1)
    assert(p(0 -> 1, 1 -> 1, 2 -> 1, 3 -> 1).matches(counter.rankedRow(5)))
    assert(!p(2 -> 0).matches(counter.rankedRow(5)))
  }

  test("random data: bitset counts equal naive scans") {
    for (seed <- 0 until 20) {
      val rix = RandomData.index(seed, n = 30, m = 4)
      val rnd = new scala.util.Random(seed + 1000)
      for (_ <- 0 until 25) {
        val nAttrs = 1 + rnd.nextInt(3)
        val attrs = rnd.shuffle((0 until rix.width).toList).take(nAttrs)
        val pat = Pattern.of(rix.width, attrs.map(a => a -> rnd.nextInt(rix.domainSizes(a))): _*)
        val k = 1 + rnd.nextInt(rix.size)
        val naiveD = rix.rows.count(r => pat.attrs.forall(a => r(a) == pat.vals(a)))
        val naiveK = rix.rows.take(k).count(r => pat.attrs.forall(a => r(a) == pat.vals(a)))
        assert(rix.sizeD(pat) == naiveD, s"sizeD mismatch for $pat seed=$seed")
        assert(rix.sizes(pat, k)._2 == naiveK, s"top-k count mismatch for $pat k=$k seed=$seed")
      }
    }
  }

  test("countBatch equals naive scans at the word boundaries of n and k") {
    for (n <- KernelBatches.Sizes) {
      val rix = RandomData.index(seed = n, n = n, m = 4)
      val rnd = new scala.util.Random(n)
      for (k <- KernelBatches.ks(n); (name, batch) <- KernelBatches.batches(rix.domainSizes, rnd)) {
        val sD = new Array[Int](batch.size)
        val topK = new Array[Int](batch.size)
        rix.countBatch(batch, k, sD, topK)
        for ((pat, i) <- batch.zipWithIndex) {
          assert(sD(i) == rix.rows.count(pat.matches), s"s_D($pat) n=$n k=$k batch=$name")
          assert(topK(i) == rix.rows.take(k).count(pat.matches), s"top-k($pat) n=$n k=$k batch=$name")
        }
      }
    }
  }

  test("countInto with known and unknown s_D equals naive scans at the word boundaries of n and k") {
    for (n <- KernelBatches.Sizes) {
      val rix = RandomData.index(seed = n + 200, n = n, m = 4)
      val rnd = new scala.util.Random(n + 200)
      val batches = KernelBatches.batches(rix.domainSizes, rnd)
      val ranks = KernelBatches.matchingRanks(rix, batches.head._2)
      for (k <- KernelBatches.ks(n); (name, batch) <- batches) {
        val preset = KernelBatches.mixedSizes(batch.size, rnd)
        val sD = preset.clone()
        val topK = new Array[Int](batch.size)
        rix.countInto(batch, k, sD, topK)
        val wrong = KernelBatches.wrongSlots(ranks, batch, k, preset, sD, topK)
        assert(wrong.isEmpty, s"n=$n k=$k batch=$name: ${wrong.take(5).map(batch)}")
      }
    }
  }

  private lazy val large = KernelBatches.largeIndex(seed = 7)

  test("countInto with known and unknown s_D above the parallel threshold equals naive scans") {
    val rnd = new scala.util.Random(9)
    val batches = KernelBatches.batches(large.domainSizes, rnd)
    val ranks = KernelBatches.matchingRanks(large, batches.head._2)
    for ((name, batch) <- batches; k <- KernelBatches.ks(large.size)) {
      val preset = KernelBatches.mixedSizes(batch.size, rnd)
      val unknown = preset.count(_ < 0)
      assert(unknown * KernelBatches.words(large) >= DatasetIndex.ParallelWork, name)
      val sD = preset.clone()
      val topK = new Array[Int](batch.size)
      large.countInto(batch, k, sD, topK)
      val wrong = KernelBatches.wrongSlots(ranks, batch, k, preset, sD, topK)
      assert(wrong.isEmpty, s"k=$k batch=$name: ${wrong.take(5).map(batch)}")
    }
  }

  test("a wave whose s_D are all known is counted in one chunk") {
    // Known slots read ⌈k/64⌉ words, not ⌈n/64⌉: the same wave with
    // every s_D unknown is split.
    val batch = KernelBatches.batches(large.domainSizes, new scala.util.Random(10)).head._2
    val words = KernelBatches.words(large).toInt
    assert(DatasetIndex.chunks(batch.size, words, cpus = 4) > 1)
    for (k <- Seq(1, 63, 64, 65, 128)) {
      val kWords = (k + 63) / 64
      assert(DatasetIndex.chunks(batch.size, words, cpus = 4, known = batch.size, kWords = kWords) == 1, s"k=$k")
    }
    val unknown = (DatasetIndex.ParallelWork / words).toInt + 1
    assert(DatasetIndex.chunks(batch.size, words, cpus = 4, known = batch.size - unknown, kWords = 1) > 1)
  }

  test("countBatch above the parallel threshold equals naive scans") {
    val batches = KernelBatches.batches(large.domainSizes, new scala.util.Random(7))
    val ranks = KernelBatches.matchingRanks(large, batches.head._2)
    for ((name, batch) <- batches) {
      assert(batch.size * KernelBatches.words(large) >= DatasetIndex.ParallelWork, name)
      for (k <- KernelBatches.ks(large.size)) {
        val sD = new Array[Int](batch.size)
        val topK = new Array[Int](batch.size)
        large.countBatch(batch, k, sD, topK)
        val wrong = batch.indices.filter(i => (sD(i), topK(i)) != KernelBatches.naive(ranks, batch(i), k))
        assert(wrong.isEmpty, s"k=$k batch=$name: ${wrong.take(5).map(batch)}")
      }
    }
  }

  test("a batch is split into chunks from the parallel threshold on, unless the JVM has one CPU") {
    val atThreshold = (DatasetIndex.ParallelWork / 64).toInt // patterns of 64 words
    assert(DatasetIndex.chunks(atThreshold, 64, cpus = 4) == 16)
    assert(DatasetIndex.chunks(atThreshold - 1, 64, cpus = 4) == 1)
    assert(DatasetIndex.chunks(atThreshold, 64, cpus = 1) == 1)
    assert(DatasetIndex.chunks(3, 1 << 20, cpus = 4) == 3) // at most one chunk per pattern
  }

  test("countBatch rejects a pattern of another width, sequential and parallel") {
    val small = RunningExample.index
    val smallBatch = Pattern.root(4).searchTreeChildren(small.domainSizes).toVector
    val largeBatch = KernelBatches.batches(large.domainSizes, new scala.util.Random(8)).head._2
    assert(smallBatch.size * KernelBatches.words(small) < DatasetIndex.ParallelWork)
    assert(largeBatch.size * KernelBatches.words(large) >= DatasetIndex.ParallelWork)
    for {
      (ix, batch) <- Seq(small -> smallBatch, large -> largeBatch)
      bad <- Seq(Pattern.of(ix.width - 1, 0 -> 0), Pattern.of(ix.width + 1, ix.width -> 0))
    } {
      val ps = batch.patch(batch.size / 2, Seq(bad), 0)
      val e = intercept[IllegalArgumentException] {
        ix.countBatch(ps, 5, new Array[Int](ps.size), new Array[Int](ps.size))
      }
      assert(e.getMessage.contains(s"width ${bad.width}"))
    }
  }

  /** Counts the wave over `parents` with `preset` s_D, in `chunks` chunks
    * (0: as many as its work gives); returns the `sD` and `topK` arrays.
    */
  private def wave(
      ix: DatasetIndex,
      parents: IndexedSeq[PatternCounter.Parent],
      k: Int,
      preset: Array[Int],
      chunks: Int = 0,
  ): (Array[Int], Array[Int]) = {
    val sD = preset.clone()
    val topK = new Array[Int](preset.length)
    ix.countWave(parents, k, sD, topK, chunks)
    (sD, topK)
  }

  /** `preset`s for a wave of `slots` slots: every s_D unknown, and a random mix. */
  private def presets(slots: Int, rnd: scala.util.Random): Seq[Array[Int]] =
    Seq(Array.fill(slots)(PatternCounter.Unknown), KernelBatches.mixedSizes(slots, rnd))

  test("countWave with known and unknown s_D equals naive scans at the word boundaries of n and k") {
    for (n <- KernelBatches.Sizes) {
      val rix = RandomData.index(seed = n + 400, n = n, m = 4)
      val rnd = new scala.util.Random(n + 400)
      val batches = KernelBatches.batches(rix.domainSizes, rnd)
      val ranks = KernelBatches.matchingRanks(rix, batches.head._2)
      for ((name, patterns) <- batches; k <- KernelBatches.waveKs(n)) {
        val children = KernelBatches.children(rix.domainSizes, patterns)
        for (preset <- presets(children.size, rnd)) {
          val (sD, topK) = wave(rix, patterns.map(KernelBatches.parent(ranks, _)), k, preset)
          val wrong = KernelBatches.wrongSlots(ranks, children, k, preset, sD, topK)
          assert(wrong.isEmpty, s"n=$n k=$k parents=$name: ${wrong.take(5).map(children)}")
        }
      }
    }
  }

  test("countWave above the parallel threshold equals naive scans, and 1 chunk or many give identical arrays") {
    val rnd = new scala.util.Random(11)
    val batches = KernelBatches.batches(large.domainSizes, rnd)
    val ranks = KernelBatches.matchingRanks(large, batches.head._2)
    for ((name, patterns) <- batches) {
      val children = KernelBatches.children(large.domainSizes, patterns)
      val parents = patterns.map(KernelBatches.parent(ranks, _))
      assert(children.size * KernelBatches.words(large) >= DatasetIndex.ParallelWork, name)
      for (k <- Seq(1, 64, 65, 129, large.size); preset <- presets(children.size, rnd)) {
        val (sD, topK) = wave(large, parents, k, preset)
        val wrong = KernelBatches.wrongSlots(ranks, children, k, preset, sD, topK)
        assert(wrong.isEmpty, s"k=$k parents=$name: ${wrong.take(5).map(children)}")
        for (chunks <- Seq(1, 2, 7, 64, parents.size)) {
          val (d, t) = wave(large, parents, k, preset, chunks)
          assert(d.sameElements(sD) && t.sameElements(topK), s"k=$k parents=$name chunks=$chunks")
        }
      }
    }
  }

  test("countWave takes a last sibling's s_D by subtraction only when all its siblings are unknown") {
    // Each parent's s_D is passed in one too high: a slot counted by
    // subtraction reads one too high, every other slot is exact.
    val rix = RandomData.index(seed = 12, n = 129, m = 4)
    val parents = KernelBatches.batches(rix.domainSizes, new scala.util.Random(12)).head._2
    val children = KernelBatches.children(rix.domainSizes, parents)
    val ranks = KernelBatches.matchingRanks(rix, parents)
    // One group per (parent, attribute); its slots' first index and size.
    val groups = for {
      q <- parents
      a <- (q.maxIdx + 1) until rix.width
    } yield a
    val sizes = groups.map(rix.domainSizes)
    val firsts = sizes.scanLeft(0)(_ + _)
    // Group g: all unknown (g % 3 == 0), only its last slot unknown
    // (g % 3 == 1), or only its first slot known (g % 3 == 2).
    val preset = Array.fill(children.size)(PatternCounter.Unknown)
    for (g <- groups.indices; v <- 0 until sizes(g)) {
      val i = firsts(g) + v
      if (g % 3 == 1 && v < sizes(g) - 1 || g % 3 == 2 && v == 0) preset(i) = Int.MaxValue - i
    }
    val high = parents.map { q =>
      val p = KernelBatches.parent(ranks, q)
      p.copy(sD = p.sD + 1)
    }
    for (k <- Seq(5, 64, 129)) {
      val sD = preset.clone()
      val topK = new Array[Int](children.size)
      rix.countWave(high, k, sD, topK)
      val subtracted = groups.indices
        .filter(g => (firsts(g) until firsts(g + 1)).forall(preset(_) < 0))
        .map(g => firsts(g + 1) - 1)
        .toSet
      assert(subtracted.nonEmpty && subtracted.size < groups.size) // both kinds of group
      for (i <- children.indices) {
        val (d, t) = KernelBatches.naive(ranks, children(i), k)
        val expected = if (preset(i) >= 0) preset(i) else if (subtracted(i)) d + 1 else d
        assert(sD(i) == expected && topK(i) == t, s"k=$k slot $i ${children(i)}: ${(sD(i), topK(i))}")
      }
    }
  }

  test("countWave over a schema with a domain-size-1 attribute, and parents with no slots") {
    val rnd = new scala.util.Random(13)
    val cards = IndexedSeq(3, 1, 2, 3)
    val rows = Array.fill(130)(Array.tabulate(4)(a => rnd.nextInt(cards(a))))
    val names = IndexedSeq("A0", "A1", "A2", "A3")
    val rix = new DatasetIndex(rows, cards, names, cards.map(c => IndexedSeq.tabulate(c)(_.toString)))
    val batches = KernelBatches.batches(rix.domainSizes, rnd)
    val all = batches.head._2
    val ranks = KernelBatches.matchingRanks(rix, all)
    val last = all.filter(_.maxIdx == rix.width - 1)
    assert(last.nonEmpty && KernelBatches.children(rix.domainSizes, last).isEmpty)
    val (d0, t0) = wave(rix, last.map(KernelBatches.parent(ranks, _)), 5, Array.empty)
    assert(d0.isEmpty && t0.isEmpty)
    for ((name, patterns) <- batches; k <- KernelBatches.waveKs(rix.size)) {
      val children = KernelBatches.children(rix.domainSizes, patterns)
      for (preset <- presets(children.size, rnd)) {
        val (sD, topK) = wave(rix, patterns.map(KernelBatches.parent(ranks, _)), k, preset)
        val wrong = KernelBatches.wrongSlots(ranks, children, k, preset, sD, topK)
        assert(wrong.isEmpty, s"k=$k parents=$name: ${wrong.take(5).map(children)}")
      }
    }
  }

  test("countWave rejects a parent that is not a pattern of the schema") {
    import KernelBatches.WaveParent
    val bad = Seq(
      WaveParent(Array(1, 0), Array(0, 0), 4) -> "constraint 2 (attribute 0, value 0)",
      WaveParent(Array(1, 1), Array(0, 1), 4) -> "constraint 2 (attribute 1, value 1)",
      WaveParent(Array(4), Array(0), 4) -> "constraint 1 (attribute 4, value 0)",
      WaveParent(Array(3), Array(3), 4) -> "constraint 1 (attribute 3, value 3)",
      WaveParent(Array(2), Array(-1), 4) -> "constraint 1 (attribute 2, value -1)",
      WaveParent(Array(0, 1), Array(0), 4) -> "parent 1 has 2 attributes and 1 values",
    )
    for ((q, msg) <- bad) {
      val parents = Vector(WaveParent(Array.emptyIntArray, Array.emptyIntArray, 16), q)
      val e = intercept[IllegalArgumentException](ix.countWave(parents, 5, new Array[Int](99), new Array[Int](99)))
      assert(e.getMessage.contains(msg), e.getMessage)
    }
  }

  test("bitsets larger than the heap are rejected before allocating, naming the widest attribute") {
    // One row needs one word per (attribute, value): Σ domain × 8 bytes.
    val m = (Runtime.getRuntime.maxMemory / (8L * Int.MaxValue) + 2).toInt
    val names = IndexedSeq.tabulate(m)(a => if (a == m / 2) "income" else s"A$a")
    val sizes = IndexedSeq.tabulate(m)(a => if (a == m / 2) Int.MaxValue else Int.MaxValue - 1)
    val e = intercept[IllegalArgumentException] {
      new DatasetIndex(Array(new Array[Int](m)), sizes, names, names.map(_ => IndexedSeq.empty))
    }
    assert(e.getMessage.contains(s"attribute income has the largest domain (${Int.MaxValue} values)"))
    assert(e.getMessage.contains("bucketize"))
  }

  private def rebuild(
      rows: Array[Array[Int]] = ix.rows,
      names: IndexedSeq[String] = ix.attrNames,
      domains: IndexedSeq[IndexedSeq[String]] = ix.domains,
  ): String = intercept[IllegalArgumentException](new DatasetIndex(rows, ix.domainSizes, names, domains)).getMessage

  test("an attribute name list of another width is rejected") {
    for (names <- Seq(ix.attrNames.init, ix.attrNames :+ "Extra")) {
      val msg = rebuild(names = names)
      assert(msg.contains(s"${names.length} attribute names") && msg.contains("for 4 attributes"), msg)
    }
  }

  test("a label list that does not match its domain size is rejected, naming the attribute") {
    val msg = rebuild(domains = ix.domains.updated(3, IndexedSeq("0", "1")))
    assert(msg.contains("attribute Failures has 2 labels for 3 values"), msg)
    assert(rebuild(domains = ix.domains.init).contains("3 label lists for 4 attributes"))
  }

  test("a row value outside its attribute's domain is rejected, naming the attribute and rank") {
    for (v <- Seq(3, -1)) {
      val rows = ix.rows.map(_.clone)
      rows(6)(3) = v
      val msg = rebuild(rows = rows)
      assert(msg.contains(s"rank 7 holds value $v of attribute Failures, outside [0, 3)"), msg)
    }
  }
}
