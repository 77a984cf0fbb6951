package repro.core

import repro.{Oracle, SparkSpec}

/** The local counter against naive scans and the DuckDB oracle, on the
  * running example and on generated data.
  */
class CounterSpec extends SparkSpec {
  import RunningExample.p

  private lazy val exampleDf = {
    val df = RunningExample.df(spark)
    df.withColumnRenamed("paper_rank", "rank")
  }

  private val localCounter = new LocalPatternCounter(RunningExample.index)

  test("local countBatch equals naive scans at the word boundaries of n and k") {
    for (n <- KernelBatches.Sizes) {
      val rix = RandomData.index(seed = n + 100, n = n, m = 4)
      val counter = new LocalPatternCounter(rix)
      val rnd = new scala.util.Random(n + 100)
      for (k <- KernelBatches.ks(n); (name, batch) <- KernelBatches.batches(rix.domainSizes, rnd)) {
        val got = counter.countBatch(batch, k)
        assert(got.keySet == batch.toSet, s"n=$n k=$k batch=$name")
        for (pat <- batch) {
          val naive = (rix.rows.count(pat.matches).toLong, rix.rows.take(k).count(pat.matches).toLong)
          assert(got(pat) == naive, s"$pat n=$n k=$k batch=$name")
        }
      }
    }
  }

  test("local countBatch above the parallel threshold equals naive scans") {
    val rix = KernelBatches.largeIndex(seed = 107)
    val counter = new LocalPatternCounter(rix)
    val batches = KernelBatches.batches(rix.domainSizes, new scala.util.Random(107))
    val ranks = KernelBatches.matchingRanks(rix, batches.head._2)
    for ((name, batch) <- batches) {
      assert(batch.size * KernelBatches.words(rix) >= DatasetIndex.ParallelWork, name)
      for (k <- KernelBatches.ks(rix.size)) {
        val got = counter.countBatch(batch, k)
        assert(got.keySet == batch.toSet, s"k=$k batch=$name")
        val wrong = batch.filter { pat =>
          val (d, t) = KernelBatches.naive(ranks, pat, k)
          got(pat) != ((d.toLong, t.toLong))
        }
        assert(wrong.isEmpty, s"k=$k batch=$name: ${wrong.take(5)}")
      }
    }
  }

  test("local countInto with known and unknown s_D equals naive scans at the word boundaries of n and k") {
    for (n <- KernelBatches.Sizes) {
      val rix = RandomData.index(seed = n + 300, n = n, m = 4)
      val counter = new LocalPatternCounter(rix)
      val rnd = new scala.util.Random(n + 300)
      val batches = KernelBatches.batches(rix.domainSizes, rnd)
      val ranks = KernelBatches.matchingRanks(rix, batches.head._2)
      for (k <- KernelBatches.ks(n); (name, batch) <- batches) {
        val preset = KernelBatches.mixedSizes(batch.size, rnd)
        val sD = preset.clone()
        val topK = new Array[Int](batch.size)
        counter.countInto(batch, k, sD, topK)
        val wrong = KernelBatches.wrongSlots(ranks, batch, k, preset, sD, topK)
        assert(wrong.isEmpty, s"n=$n k=$k batch=$name: ${wrong.take(5).map(batch)}")
      }
    }
  }

  test("local countInto with known and unknown s_D above the parallel threshold equals naive scans") {
    val rix = KernelBatches.largeIndex(seed = 108)
    val counter = new LocalPatternCounter(rix)
    val rnd = new scala.util.Random(108)
    val batches = KernelBatches.batches(rix.domainSizes, rnd)
    val ranks = KernelBatches.matchingRanks(rix, batches.head._2)
    for ((name, batch) <- batches; k <- KernelBatches.ks(rix.size)) {
      val preset = KernelBatches.mixedSizes(batch.size, rnd)
      assert(preset.count(_ < 0) * KernelBatches.words(rix) >= DatasetIndex.ParallelWork, name)
      val sD = preset.clone()
      val topK = new Array[Int](batch.size)
      counter.countInto(batch, k, sD, topK)
      val wrong = KernelBatches.wrongSlots(ranks, batch, k, preset, sD, topK)
      assert(wrong.isEmpty, s"k=$k batch=$name: ${wrong.take(5).map(batch)}")
    }
  }

  test("the default countInto is one countBatch call with every pattern, and keeps known s_D") {
    val rix = RandomData.index(seed = 301, n = 129, m = 4)
    val rnd = new scala.util.Random(301)
    val batches = KernelBatches.batches(rix.domainSizes, rnd)
    val ranks = KernelBatches.matchingRanks(rix, batches.head._2)
    for (k <- KernelBatches.ks(rix.size); (name, batch) <- batches) {
      val log = new BatchLogCounter(new LocalPatternCounter(rix)) // overrides countBatch only
      val preset = KernelBatches.mixedSizes(batch.size, rnd)
      val sD = preset.clone()
      val topK = new Array[Int](batch.size)
      log.countInto(batch, k, sD, topK)
      assert(log.sizes == Seq(batch.size), s"k=$k batch=$name")
      val wrong = KernelBatches.wrongSlots(ranks, batch, k, preset, sD, topK)
      assert(wrong.isEmpty, s"k=$k batch=$name: ${wrong.take(5).map(batch)}")
    }
  }

  test("the default countWave is one countInto call with the wave's child patterns in slot order, and keeps known s_D") {
    val rix = RandomData.index(seed = 302, n = 129, m = 4)
    val rnd = new scala.util.Random(302)
    val batches = KernelBatches.batches(rix.domainSizes, rnd)
    val ranks = KernelBatches.matchingRanks(rix, batches.head._2)
    val local = new LocalPatternCounter(rix)
    for (k <- KernelBatches.ks(rix.size); (name, parents) <- batches) {
      val children = KernelBatches.children(rix.domainSizes, parents)
      val wave = parents.map(KernelBatches.parent(ranks, _))
      val preset = KernelBatches.mixedSizes(children.size, rnd)
      // overrides countInto only: records each call's patterns and s_D on entry
      val calls = scala.collection.mutable.ArrayBuffer.empty[(Vector[Pattern], Vector[Int])]
      val into = new PatternCounter {
        override def width: Int = local.width
        override def domainSizes: IndexedSeq[Int] = local.domainSizes
        override def datasetSize: Long = local.datasetSize
        override def countBatch(patterns: Seq[Pattern], k: Int): Map[Pattern, (Long, Long)] = local.countBatch(patterns, k)
        override def countInto(patterns: IndexedSeq[Pattern], k: Int, sD: Array[Int], topK: Array[Int]): Unit = {
          calls += ((patterns.toVector, sD.toVector))
          local.countInto(patterns, k, sD, topK)
        }
        override def rankedRow(rank: Int): Array[Int] = local.rankedRow(rank)
      }
      val batchLog = new BatchLogCounter(local) // overrides countBatch only
      for (counter <- Seq(into, batchLog)) {
        val sD = preset.clone()
        val topK = new Array[Int](children.size)
        counter.countWave(wave, k, sD, topK)
        val wrong = KernelBatches.wrongSlots(ranks, children, k, preset, sD, topK)
        assert(wrong.isEmpty, s"k=$k parents=$name: ${wrong.take(5).map(children)}")
      }
      assert(calls == Seq(children -> preset.toVector), s"k=$k parents=$name")
      assert(batchLog.sizes == Seq(children.size), s"k=$k parents=$name")
    }
  }

  test("pattern counts validated against DuckDB") {
    import org.apache.spark.sql.functions._
    val df = exampleDf
    val sparkAgg = df.agg(
      sum(when(col("school") === "GP", 1L).otherwise(0L)).alias("gp_total"),
      sum(when(col("school") === "GP" && col("rank") <= 5, 1L).otherwise(0L)).alias("gp_top5"),
      sum(when(col("gender") === "F" && col("address") === "R", 1L).otherwise(0L)).alias("fr_total"),
    )
    Oracle.assertEquivalent(
      sparkAgg,
      """SELECT
        |  sum(CASE WHEN school = 'GP' THEN 1 ELSE 0 END) AS gp_total,
        |  sum(CASE WHEN school = 'GP' AND CAST(rank AS INT) <= 5 THEN 1 ELSE 0 END) AS gp_top5,
        |  sum(CASE WHEN gender = 'F' AND address = 'R' THEN 1 ELSE 0 END) AS fr_total
        |FROM students""".stripMargin,
      "students" -> df,
    )
  }

  test("local countBatch validated against DuckDB on the Figure 1 data") {
    import spark.implicits._
    val cols = Seq("gender", "school", "address", "failures")
    val pats = Pattern.root(4).searchTreeChildren(RunningExample.index.domainSizes) :+ p(0 -> 0, 2 -> 0)
    val ks = Seq(1, 5, 16)
    val local = (for {
      k <- ks
      counts = localCounter.countBatch(pats, k)
      (pat, i) <- pats.zipWithIndex
    } yield (s"p$i", k, counts(pat)._1, counts(pat)._2)).toDF("pat", "k", "sd", "topk")
    val sql = (for (k <- ks; (pat, i) <- pats.zipWithIndex) yield {
      val pred = pat.attrs.map(a => s"${cols(a)} = '${RunningExample.domains(a)(pat.vals(a))}'").mkString(" AND ")
      s"""SELECT 'p$i' AS pat, $k AS k,
         |  sum(CASE WHEN $pred THEN 1 ELSE 0 END) AS sd,
         |  sum(CASE WHEN $pred AND CAST(rank AS INT) <= $k THEN 1 ELSE 0 END) AS topk
         |FROM students""".stripMargin
    }).mkString("\nUNION ALL\n")
    Oracle.assertEquivalent(local, sql, "students" -> exampleDf)
  }
}
