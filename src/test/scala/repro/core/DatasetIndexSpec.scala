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

  // A pattern batch reaches the index through LocalPatternCounter.countBatch:
  // one countWave call over the batch's search-tree parents, s_D unknown.
  test("countBatch equals naive scans at the word boundaries of n and k") {
    for (n <- KernelBatches.Sizes) {
      val rix = RandomData.index(seed = n, n = n, m = 4)
      val counter = new LocalPatternCounter(rix)
      val rnd = new scala.util.Random(n)
      for (k <- KernelBatches.ks(n); (name, batch) <- KernelBatches.batches(rix.domainSizes, rnd)) {
        val got = counter.countBatch(batch, k)
        for (pat <- batch) {
          val (d, t) = got(pat)
          assert(d == rix.rows.count(pat.matches), s"s_D($pat) n=$n k=$k batch=$name")
          assert(t == rix.rows.take(k).count(pat.matches), s"top-k($pat) n=$n k=$k batch=$name")
        }
      }
    }
  }

  // The pattern-batch method this test is named for is gone: a mix of
  // known and unknown s_D now reaches the index as one wave's slots.
  test("countInto with known and unknown s_D equals naive scans at the word boundaries of n and k") {
    for (n <- KernelBatches.Sizes) {
      val rix = RandomData.index(seed = n + 200, n = n, m = 4)
      val rnd = new scala.util.Random(n + 200)
      val batches = KernelBatches.batches(rix.domainSizes, rnd)
      val ranks = KernelBatches.matchingRanks(rix, batches.head._2)
      for (k <- KernelBatches.ks(n); (name, patterns) <- batches) {
        val children = KernelBatches.children(rix.domainSizes, patterns)
        val parents = patterns.map(KernelBatches.parent(rix.domainSizes, ranks, _))
        val preset = KernelBatches.mixedSizes(children.size, rnd)
        for (chunks <- Seq(0, 1, 7, parents.size)) {
          val (sD, topK) = wave(rix, parents, k, preset, chunks)
          val wrong = KernelBatches.wrongSlots(ranks, children, k, preset, sD, topK)
          assert(wrong.isEmpty, s"n=$n k=$k parents=$name chunks=$chunks: ${wrong.take(5).map(children)}")
        }
      }
    }
  }

  private lazy val large = KernelBatches.largeIndex(seed = 7)

  test("countInto with known and unknown s_D above the parallel threshold equals naive scans") {
    // As above: the unknown slots of the mix alone reach the threshold.
    val rnd = new scala.util.Random(9)
    val batches = KernelBatches.batches(large.domainSizes, rnd)
    val ranks = KernelBatches.matchingRanks(large, batches.head._2)
    for ((name, patterns) <- batches; k <- KernelBatches.ks(large.size)) {
      val children = KernelBatches.children(large.domainSizes, patterns)
      val preset = KernelBatches.mixedSizes(children.size, rnd)
      assert(preset.count(_ < 0) * KernelBatches.words(large) >= DatasetIndex.ParallelWork, name)
      val (sD, topK) = wave(large, patterns.map(KernelBatches.parent(large.domainSizes, ranks, _)), k, preset)
      val wrong = KernelBatches.wrongSlots(ranks, children, k, preset, sD, topK)
      assert(wrong.isEmpty, s"k=$k parents=$name: ${wrong.take(5).map(children)}")
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
    val counter = new LocalPatternCounter(large)
    for ((name, batch) <- batches) {
      assert(batch.size * KernelBatches.words(large) >= DatasetIndex.ParallelWork, name)
      for (k <- KernelBatches.ks(large.size)) {
        val got = counter.countBatch(batch, k)
        val wrong = batch.filter { pat =>
          val (d, t) = KernelBatches.naive(ranks, pat, k)
          got(pat) != ((d.toLong, t.toLong))
        }
        assert(wrong.isEmpty, s"k=$k batch=$name: ${wrong.take(5)}")
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
      val e = intercept[IllegalArgumentException](new LocalPatternCounter(ix).countBatch(ps, 5))
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
          val (sD, topK) = wave(rix, patterns.map(KernelBatches.parent(rix.domainSizes, ranks, _)), k, preset)
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
      val parents = patterns.map(KernelBatches.parent(large.domainSizes, ranks, _))
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

  /** `sD` input for a wave over `parents` in which each parent's slots
    * are either all known (a distinct value no s_D can take) or a
    * [[KernelBatches.mixedSizes]] mix, chosen at random per parent.
    */
  private def knownByParent(ix: DatasetIndex, parents: Seq[Pattern], rnd: scala.util.Random): Array[Int] = {
    val groups = parents.map { q =>
      val slots = q.searchTreeChildren(ix.domainSizes).size
      if (slots == 0) Array.empty[Int]
      else if (rnd.nextBoolean()) Array.fill(slots)(0)
      else if (slots == 1) Array(PatternCounter.Unknown)
      else KernelBatches.mixedSizes(slots, rnd).map(d => if (d >= 0) 0 else d)
    }
    val sD = groups.flatten.toArray
    for (i <- sD.indices if sD(i) >= 0) sD(i) = Int.MaxValue - i
    sD
  }

  test("countWave with every s_D known equals naive scans at the word boundaries of n and k, in 1 chunk and many") {
    for (n <- KernelBatches.Sizes) {
      val rix = RandomData.index(seed = n + 500, n = n, m = 4)
      val rnd = new scala.util.Random(n + 500)
      val batches = KernelBatches.batches(rix.domainSizes, rnd)
      val ranks = KernelBatches.matchingRanks(rix, batches.head._2)
      for ((name, patterns) <- batches; k <- KernelBatches.waveKs(n)) {
        val children = KernelBatches.children(rix.domainSizes, patterns)
        val parents = patterns.map(KernelBatches.parent(rix.domainSizes, ranks, _))
        val preset = Array.tabulate(children.size)(i => Int.MaxValue - i)
        for (chunks <- Seq(0, 1, 2, 7, parents.size)) {
          val (sD, topK) = wave(rix, parents, k, preset, chunks)
          val wrong = KernelBatches.wrongSlots(ranks, children, k, preset, sD, topK)
          assert(wrong.isEmpty, s"n=$n k=$k parents=$name chunks=$chunks: ${wrong.take(5).map(children)}")
        }
      }
    }
  }

  test("countWave over parents whose slots are all known mixed with parents with unknown slots equals naive scans") {
    for ((rix, seed) <- Seq(RandomData.index(seed = 14, n = 129, m = 4) -> 14, large -> 15)) {
      val rnd = new scala.util.Random(seed)
      val batches = KernelBatches.batches(rix.domainSizes, rnd)
      val ranks = KernelBatches.matchingRanks(rix, batches.head._2)
      for ((name, patterns) <- batches; k <- Seq(0, 1, 64, 65, 129, rix.size)) {
        val children = KernelBatches.children(rix.domainSizes, patterns)
        val parents = patterns.map(KernelBatches.parent(rix.domainSizes, ranks, _))
        val preset = knownByParent(rix, patterns, rnd)
        assert(preset.exists(_ >= 0) && preset.exists(_ < 0))
        val (sD, topK) = wave(rix, parents, k, preset)
        val wrong = KernelBatches.wrongSlots(ranks, children, k, preset, sD, topK)
        assert(wrong.isEmpty, s"n=${rix.size} k=$k parents=$name: ${wrong.take(5).map(children)}")
        for (chunks <- Seq(1, 7, parents.size)) {
          val (d, t) = wave(rix, parents, k, preset, chunks)
          assert(d.sameElements(sD) && t.sameElements(topK), s"n=${rix.size} k=$k parents=$name chunks=$chunks")
        }
      }
    }
  }

  test("countWave takes a last sibling's s_D by subtraction only when all its siblings are unknown") {
    // Each parent's s_D is passed in one too high: a slot counted by
    // subtraction reads one too high, every other slot is exact. With
    // the parents' s_D unknown, no slot is counted by subtraction.
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
      val p = KernelBatches.parent(rix.domainSizes, ranks, q)
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
      val (d, t) = wave(rix, high.map(_.copy(sD = PatternCounter.Unknown)), k, preset)
      val wrong = KernelBatches.wrongSlots(ranks, children, k, preset, d, t)
      assert(wrong.isEmpty, s"k=$k, parents' s_D unknown: ${wrong.take(5).map(children)}")
    }
  }

  test("countWave over a schema with a domain-size-1 attribute, and parents with no slots") {
    // A domain-size-1 attribute's one value is its own last sibling: with
    // the parent's s_D unknown, it must be counted, not subtracted.
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
    val (d0, t0) = wave(rix, last.map(KernelBatches.parent(rix.domainSizes, ranks, _)), 5, Array.empty)
    assert(d0.isEmpty && t0.isEmpty)
    val local = new LocalPatternCounter(rix)
    for ((name, patterns) <- batches; k <- KernelBatches.waveKs(rix.size)) {
      val children = KernelBatches.children(rix.domainSizes, patterns)
      val parents = patterns.map(KernelBatches.parent(rix.domainSizes, ranks, _))
      for (preset <- presets(children.size, rnd); ps <- Seq(parents, parents.map(_.copy(sD = PatternCounter.Unknown)))) {
        val (sD, topK) = wave(rix, ps, k, preset)
        val wrong = KernelBatches.wrongSlots(ranks, children, k, preset, sD, topK)
        assert(wrong.isEmpty, s"k=$k parents=$name: ${wrong.take(5).map(children)}")
      }
      val got = local.countBatch(children, k)
      val wrong = children.filter { c =>
        val (d, t) = KernelBatches.naive(ranks, c, k)
        got(c) != ((d.toLong, t.toLong))
      }
      assert(wrong.isEmpty, s"countBatch k=$k parents=$name: ${wrong.take(5)}")
    }
  }

  test("countWave rejects a parent that is not a pattern of the schema") {
    import KernelBatches.WaveParent
    val bad = Seq(
      WaveParent(Array(1, 0), Array(0, 0), 4, Array.emptyIntArray) -> "constraint 2 (attribute 0, value 0)",
      WaveParent(Array(1, 1), Array(0, 1), 4, Array.emptyIntArray) -> "constraint 2 (attribute 1, value 1)",
      WaveParent(Array(4), Array(0), 4, Array.emptyIntArray) -> "constraint 1 (attribute 4, value 0)",
      WaveParent(Array(3), Array(3), 4, Array.emptyIntArray) -> "constraint 1 (attribute 3, value 3)",
      WaveParent(Array(2), Array(-1), 4, Array.emptyIntArray) -> "constraint 1 (attribute 2, value -1)",
      WaveParent(Array(0, 1), Array(0), 4, Array.emptyIntArray) -> "parent 1 has 2 attributes and 1 values",
    )
    for ((q, msg) <- bad) {
      val parents = Vector(WaveParent(Array.emptyIntArray, Array.emptyIntArray, 16, Array.emptyIntArray), q)
      val e = intercept[IllegalArgumentException](ix.countWave(parents, 5, new Array[Int](99), new Array[Int](99)))
      assert(e.getMessage.contains(msg), e.getMessage)
    }
  }

  // ---- slot lists: a wave counts only the slots its parents list ----

  /** `preset`s for a wave of `slots` listed positions: every s_D unknown,
    * and, if there is a position, a random mix.
    */
  private def listedPresets(slots: Int, rnd: scala.util.Random): Seq[Array[Int]] =
    if (slots == 0) Seq(Array.emptyIntArray) else presets(slots, rnd)

  test("countWave over partial and full slot lists, known and unknown s_D mixed, equals naive scans at the word boundaries of n and k") {
    for (n <- KernelBatches.Sizes) {
      val rix = RandomData.index(seed = n + 600, n = n, m = 4)
      val rnd = new scala.util.Random(n + 600)
      val batches = KernelBatches.batches(rix.domainSizes, rnd)
      val ranks = KernelBatches.matchingRanks(rix, batches.head._2)
      for ((name, patterns) <- batches; k <- KernelBatches.waveKs(n)) {
        val full = patterns.map(KernelBatches.parent(rix.domainSizes, ranks, _))
        for (parents <- Seq(full, KernelBatches.sublists(rix.domainSizes, full, rnd))) {
          val listed = KernelBatches.listed(rix.domainSizes, parents)
          for (preset <- listedPresets(listed.size, rnd); ps <- Seq(parents, parents.map(_.copy(sD = PatternCounter.Unknown)))) {
            val (sD, topK) = wave(rix, ps, k, preset)
            val wrong = KernelBatches.wrongSlots(ranks, listed, k, preset, sD, topK)
            assert(wrong.isEmpty, s"n=$n k=$k parents=$name: ${wrong.take(5).map(listed)}")
          }
        }
      }
    }
  }

  test("countWave over slot lists gives identical arrays in 1, 7 and one chunk per parent, above the parallel threshold") {
    val rnd = new scala.util.Random(16)
    val batches = KernelBatches.batches(large.domainSizes, rnd)
    val ranks = KernelBatches.matchingRanks(large, batches.head._2)
    for ((name, patterns) <- batches) {
      val parents = KernelBatches.sublists(large.domainSizes, patterns.map(KernelBatches.parent(large.domainSizes, ranks, _)), rnd)
      val listed = KernelBatches.listed(large.domainSizes, parents)
      assert(listed.size * KernelBatches.words(large) >= DatasetIndex.ParallelWork, name)
      assert(listed.size < KernelBatches.children(large.domainSizes, patterns).size, name)
      for (k <- Seq(1, 64, 65, 129, large.size); preset <- listedPresets(listed.size, rnd)) {
        val (sD, topK) = wave(large, parents, k, preset)
        val wrong = KernelBatches.wrongSlots(ranks, listed, k, preset, sD, topK)
        assert(wrong.isEmpty, s"k=$k parents=$name: ${wrong.take(5).map(listed)}")
        for (chunks <- Seq(1, 7, parents.size)) {
          val (d, t) = wave(large, parents, k, preset, chunks)
          assert(d.sameElements(sD) && t.sameElements(topK), s"k=$k parents=$name chunks=$chunks")
        }
      }
    }
  }

  test("countWave takes a last sibling's s_D by subtraction only when the list holds all its attribute's values, all unknown, and the parent's s_D is known") {
    // Each parent's s_D is passed in one too high, so a slot counted by
    // subtraction reads one too high and every other slot is exact. Each
    // (parent, attribute) group is listed whole with every s_D unknown
    // (mode 0: subtracted), whole with one s_D known (1), without its last
    // value (2), without its first value (3), or not at all (4).
    val rix = RandomData.index(seed = 17, n = 129, m = 4)
    val rnd = new scala.util.Random(17)
    val patterns = KernelBatches.batches(rix.domainSizes, rnd).head._2
    val ranks = KernelBatches.matchingRanks(rix, patterns)
    val offset = rix.domainSizes.scanLeft(0)(_ + _)
    val modes = scala.collection.mutable.Map.empty[Int, Int].withDefaultValue(0) // mode -> groups
    val drawn = patterns.map { q =>
      val first = q.maxIdx + 1
      val groups = (first until rix.width).map { a =>
        val from = offset(a) - offset(first)
        val d = rix.domainSizes(a)
        val mode = rnd.nextInt(5)
        modes(mode) += 1
        val slots = mode match {
          case 0 | 1 => from until from + d
          case 2 => from until from + d - 1
          case 3 => from + 1 until from + d
          case _ => from until from
        }
        val known = if (mode == 1) Set(slots(rnd.nextInt(slots.size))) else Set.empty[Int]
        (slots, known, if (mode == 0) Set(from + d - 1) else Set.empty[Int])
      }
      val p = KernelBatches.parent(rix.domainSizes, ranks, q)
      (p.copy(sD = p.sD + 1, slots = groups.flatMap(_._1).toArray), groups.flatMap(_._2).toSet, groups.flatMap(_._3).toSet)
    }
    assert((0 to 4).forall(modes(_) > 0), modes)
    val high = drawn.map(_._1)
    val listed = KernelBatches.listed(rix.domainSizes, high)
    // per wave position: whether its s_D is passed in, and whether it is subtracted
    val (known, subtracted) = drawn.flatMap { case (q, kn, sub) => q.slots.map(s => (kn(s), sub(s))) }.unzip
    val preset = known.indices.map(i => if (known(i)) Int.MaxValue - i else PatternCounter.Unknown).toArray
    assert(subtracted.contains(true))
    for (k <- Seq(5, 64, 129)) {
      val (sD, topK) = wave(rix, high, k, preset)
      for (i <- listed.indices) {
        val (d, t) = KernelBatches.naive(ranks, listed(i), k)
        val expected = if (known(i)) preset(i) else if (subtracted(i)) d + 1 else d
        assert(sD(i) == expected && topK(i) == t, s"k=$k position $i ${listed(i)}: ${(sD(i), topK(i))}")
      }
      val (d, t) = wave(rix, high.map(_.copy(sD = PatternCounter.Unknown)), k, preset)
      val wrong = KernelBatches.wrongSlots(ranks, listed, k, preset, d, t)
      assert(wrong.isEmpty, s"k=$k, parents' s_D unknown: ${wrong.take(5).map(listed)}")
    }
  }

  test("countWave rejects an unsorted, repeated or out-of-range slot list, sequential and parallel") {
    import KernelBatches.WaveParent
    val root = WaveParent(Array.emptyIntArray, Array.emptyIntArray, 16, Array.range(0, 9))
    // {Failures=1} has no slots; {Address=U} has the three of Failures
    val bad = Seq(
      WaveParent(Array(2), Array(1), 8, Array(0, 2, 1)) -> "listed slot 3 (1) is not above the one before it (2)",
      WaveParent(Array(2), Array(1), 8, Array(1, 1)) -> "listed slot 2 (1) is not above the one before it (1)",
      WaveParent(Array(2), Array(1), 8, Array(0, 3)) -> "listed slot 2 (3) is outside [0, 3)",
      WaveParent(Array(2), Array(1), 8, Array(-1, 0)) -> "listed slot 1 (-1) is outside [0, 3)",
      WaveParent(Array(3), Array(1), 8, Array(0)) -> "listed slot 1 (0) is outside [0, 0)",
    )
    for ((q, msg) <- bad) {
      val e = intercept[IllegalArgumentException](ix.countWave(Vector(root, q), 5, new Array[Int](99), new Array[Int](99)))
      assert(e.getMessage.contains(s"parent 1: $msg"), e.getMessage)
    }
    val patterns = KernelBatches.batches(large.domainSizes, new scala.util.Random(18)).head._2
    val ranks = KernelBatches.matchingRanks(large, patterns)
    val parents = patterns.map(KernelBatches.parent(large.domainSizes, ranks, _))
    val slots = KernelBatches.children(large.domainSizes, patterns).size
    assert(slots * KernelBatches.words(large) >= DatasetIndex.ParallelWork)
    val p = parents.indexWhere(_.slots.length > 1)
    val swapped = parents(p).slots.clone()
    swapped(0) = swapped(1)
    swapped(1) = parents(p).slots(0)
    val e = intercept[IllegalArgumentException] {
      new LocalPatternCounter(large).countWave(parents.updated(p, parents(p).copy(slots = swapped)), 5, new Array[Int](slots), new Array[Int](slots))
    }
    assert(e.getMessage.contains(s"parent $p: listed slot 2 (0) is not above the one before it (1)"), e.getMessage)
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
