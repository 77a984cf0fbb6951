package repro.bench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}
import java.security.MessageDigest

import scala.collection.immutable.SortedMap
import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.BenchListenerBus
import org.apache.spark.sql.SparkSession

import repro.core._
import repro.data.BiasDataGen.RankedDataset
import repro.data.{BiasDataGen, Encoding}

/** One fixed k-range detection, from data generation to `resByK`.
  *
  * @param defaultSeed the generator's own seed; its `resByK` digest is
  *                    stored in the reference file
  * @param detect      the timed algorithm
  * @param check       a second algorithm that must give the same
  *                    `resByK` (Props. 4.5 / 4.8); untimed
  */
final case class Workload(
    name: String,
    defaultSeed: Long,
    tauS: Long,
    kMin: Int,
    kMax: Int,
    generate: (SparkSession, Long) => RankedDataset,
    detect: (PatternCounter, Workload, Budget) => DetectionResult,
    check: (PatternCounter, Workload, Budget) => DetectionResult,
)

object Workloads {
  val Alpha = 0.8

  private def prop(c: PatternCounter): BiasBound = ProportionalLowerBound(Alpha, c.datasetSize)

  val all: Seq[Workload] = Seq(
    // Search-bound: the incremental engine's row reads, the fresh search at
    // each L_k step, and Res upkeep; counting is below 2 %.
    Workload(
      "global-german", defaultSeed = 11, tauS = 50, kMin = 10, kMax = 170,
      generate = (s, seed) => BiasDataGen.germanLike(s, seed = seed),
      detect = (c, w, b) => GlobalBounds.run(c, GlobalLowerBound.paperDefault, w.tauS, w.kMin, w.kMax, b),
      check = (c, w, b) => IterTD.run(c, GlobalLowerBound.paperDefault, w.tauS, w.kMin, w.kMax, b),
    ),
    // Counting-bound: large batches over 100k-row bitsets; also the
    // largest Spark set-up.
    Workload(
      "itertd-compas100k", defaultSeed = 42, tauS = 2000, kMin = 10, kMax = 19,
      generate = (s, seed) => BiasDataGen.compasScaled(s, 100000, seed = seed),
      detect = (c, w, b) => IterTD.run(c, prop(c), w.tauS, w.kMin, w.kMax, b),
      check = (c, w, b) => PropBounds.run(c, Alpha, w.tauS, w.kMin, w.kMax, b),
    ),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}")
    )
}

/** Command line of the benchmark's JVM. */
final case class Args(
    workload: String = "",
    seed: Option[Long] = None,
    seconds: Int = 10,
    trace: Boolean = false,
    reference: Path = Paths.get("reference.tsv"),
    traceFile: Path = Paths.get("trace.json"),
    commit: String = "unknown",
    sourceDigest: String = "unknown",
    writeReference: Boolean = false,
)

object Args {
  def parse(argv: List[String], a: Args = Args()): Args = argv match {
    case Nil                              => a
    case "--workload" :: v :: rest        => parse(rest, a.copy(workload = v))
    case "--seed" :: v :: rest            => parse(rest, a.copy(seed = Some(v.toLong)))
    case "--seconds" :: v :: rest         => parse(rest, a.copy(seconds = v.toInt))
    case "--trace" :: v :: rest           => parse(rest, a.copy(trace = v == "1"))
    case "--reference" :: v :: rest       => parse(rest, a.copy(reference = Paths.get(v)))
    case "--trace-file" :: v :: rest      => parse(rest, a.copy(traceFile = Paths.get(v)))
    case "--commit" :: v :: rest          => parse(rest, a.copy(commit = v))
    case "--source-digest" :: v :: rest   => parse(rest, a.copy(sourceDigest = v))
    case "--write-reference" :: rest      => parse(rest, a.copy(writeReference = true))
    case other :: _                       => throw new IllegalArgumentException(s"unknown argument '$other'")
  }
}

/** Benchmark entry point. Prints one line per metric, then the result
  * object as the last line of standard output.
  */
object DetBench {
  /** Timed set-ups per run; `setup_s` is their median. */
  val SetupReps = 3
  /** Timed detections per run at least, even past `--seconds`. */
  val MinDetects = 3
  /** Per-detection deadline, far above the normal time (about 2 s), so
    * that a hang counts as a failure rather than a slow run. After a
    * failure a run times at most one more detection, so that it still ends
    * within its time limit.
    */
  val BudgetMs = 40000L

  def main(argv: Array[String]): Unit = {
    val args = Args.parse(argv.toList)
    val w = Workloads.byName(args.workload)
    val spark = session()
    val code =
      try new DetBench(spark, w, args.seed.getOrElse(w.defaultSeed), args).run()
      finally spark.stop()
    sys.exit(code)
  }

  def session(): SparkSession = {
    val threads = math.max(1, math.min(4, Runtime.getRuntime.availableProcessors))
    SparkSession.builder
      .master(s"local[$threads]")
      .appName("detbench")
      // fixed partition counts keep the task counters independent of nproc
      .config("spark.default.parallelism", 4)
      .config("spark.sql.shuffle.partitions", 4)
      .getOrCreate()
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** SHA-256 over, per k, the sorted rendered patterns of `Res[k]`. */
  def digest(resByK: SortedMap[Int, Set[Pattern]], idx: DatasetIndex): String = {
    val md = MessageDigest.getInstance("SHA-256")
    for ((k, ps) <- resByK)
      md.update(s"$k\t${ps.toSeq.map(idx.render).sorted.mkString(";")}\n".getBytes(StandardCharsets.UTF_8))
    md.digest().map(b => f"$b%02x").mkString
  }

  /** Reference file: `workload<TAB>seed<TAB>digest` per line. */
  def readReference(path: Path): Map[(String, Long), String] =
    if (!Files.exists(path)) Map.empty
    else
      Files.readAllLines(path).asScala.toSeq.map(_.trim).filter(l => l.nonEmpty && !l.startsWith("#")).map { l =>
        val Array(name, seed, d) = l.split("\t")
        (name, seed.toLong) -> d
      }.toMap

  /** The highest percentile with at least ten samples beyond it, if it
    * lies above the median.
    */
  def tail(xs: Seq[Double]): String = {
    val n = xs.size
    if (n <= 20) f"max ${xs.max}%.4f s; no percentile above the median has ten samples beyond it"
    else {
      val p = 1.0 - 10.0 / n
      f"p${100 * p}%.1f ${xs.sorted.apply(math.ceil(p * n).toInt - 1)}%.4f s"
    }
  }

  def allocatedBytes(): Long =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean].getTotalThreadAllocatedBytes
}

final class DetBench(spark: SparkSession, w: Workload, seed: Long, args: Args) {
  import DetBench._

  private var attempted = 0L
  private var failed = 0L
  private val drift = mutable.ArrayBuffer.empty[String]
  // counter name → first value seen; later runs must repeat it exactly
  private val firstSeen = mutable.LinkedHashMap.empty[String, Double]

  private val born = System.nanoTime()

  private def out(line: String): Unit = println(line)

  /** Progress on standard error, with seconds since start. */
  private def log(msg: String): Unit = Console.err.println(f"[detbench ${(System.nanoTime() - born) / 1e9}%7.2f s] $msg")

  private def checkRepeat(counters: Seq[(String, Double)]): Unit =
    for ((k, v) <- counters) firstSeen.get(k) match {
      case None                 => firstSeen(k) = v
      case Some(prev) if prev != v => drift += s"$k: $prev then $v"
      case _                    => ()
    }

  /** Generate, rank (materialising the cached DataFrame), encode and index. */
  private def setup(): (RankedDataset, DatasetIndex) = {
    val ds = w.generate(spark, seed)
    ds.df.count()
    (ds, Encoding.index(ds.df, ds.attrCols, ds.rankCol))
  }

  private def release(ds: RankedDataset): Unit = ds.df.unpersist(blocking = true)

  private def rowsDigest(idx: DatasetIndex): Int = java.util.Arrays.deepHashCode(idx.rows.asInstanceOf[Array[AnyRef]])

  /** One checked detection after a full GC; returns its start and end
    * (nanoTime) and its result (None if it threw).
    */
  private def detect(counter: PatternCounter, idx: DatasetIndex, expected: String): (Long, Long, Option[DetectionResult]) = {
    System.gc()
    val t0 = System.nanoTime()
    val r =
      try Some(w.detect(counter, w, Budget.ofMillis(BudgetMs)))
      catch { case e: Exception => Console.err.println(s"detection threw: $e"); None }
    val t1 = System.nanoTime()
    attempted += 1
    val ok = r.exists { res =>
      if (res.timedOut) {
        Console.err.println(s"detection hit its $BudgetMs ms budget")
        false
      } else {
        val got = digest(res.resByK, idx)
        if (got != expected) Console.err.println(s"resByK digest $got differs from the reference $expected")
        got == expected
      }
    }
    if (!ok) failed += 1
    r.foreach { res =>
      checkRepeat(Seq(
        "search.examined" -> res.examined.toDouble,
        "search.k_done" -> res.resByK.size.toDouble,
        "search.res_sum" -> res.resByK.valuesIterator.map(_.size.toLong).sum.toDouble,
      ))
    }
    (t0, t1, r)
  }

  private def seconds(d: (Long, Long, Option[DetectionResult])): Double = (d._2 - d._1) / 1e9

  def run(): Int = {
    // Untimed warm-up: one set-up, the reference, one detection.
    log("warm-up set-up")
    val (ds0, idx) = setup()
    release(ds0)
    val rowsHash = rowsDigest(idx)
    val counter = new LocalPatternCounter(idx)
    val stored = readReference(args.reference).get((w.name, seed))
    val expected =
      if (stored.isDefined && !args.writeReference) stored.get
      else {
        log("cross-check with the second algorithm")
        val r = w.check(counter, w, Budget.ofMillis(BudgetMs))
        require(!r.timedOut, s"${w.name}: the cross-check algorithm hit its budget")
        digest(r.resByK, idx)
      }
    out(s"workload ${w.name} seed $seed: reference ${if (stored.isDefined && !args.writeReference) "stored" else "cross-checked"} $expected")
    log("warm-up detection")
    val (_, _, warm) = detect(counter, idx, expected)
    if (args.writeReference) return writeReference(warm, idx, expected)

    log("timed runs")

    val metrics =
      if (args.trace) traced(idx, expected, rowsHash)
      else untraced(counter, idx, expected, rowsHash)

    val fail = failed.toDouble / attempted
    log("done")
    out(f"fail_frac = $fail%.4f ($failed of $attempted detections failed)")
    if (drift.nonEmpty) Console.err.println(s"DETERMINISM CHECK FAILED: ${drift.mkString("; ")}")
    val correct = failed == 0 && drift.isEmpty
    val metricJson = Json.obj(metrics.map { case (n, v, u) =>
      out(s"$n = ${Json.num(v)} $u")
      n -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u)))
    })
    out(Json.obj(Seq(
      "correct" -> correct.toString,
      "attempted" -> attempted.toString,
      "failed" -> failed.toString,
      "metrics" -> metricJson,
    )))
    if (drift.nonEmpty) 1 else 0
  }

  private def writeReference(warm: Option[DetectionResult], idx: DatasetIndex, expected: String): Int = {
    val got = warm.filter(!_.timedOut).map(r => digest(r.resByK, idx))
    require(got.contains(expected), s"${w.name}: detection ($got) and cross-check ($expected) disagree")
    val kept = readReference(args.reference) - ((w.name, seed))
    val lines = (kept + ((w.name, seed) -> expected)).toSeq.sortBy(_._1).map { case ((n, s), d) => s"$n\t$s\t$d" }
    val header = "# workload<TAB>seed<TAB>SHA-256 of resByK; written by run.py --write-reference"
    Files.write(args.reference, (header +: lines).mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
    out(s"wrote ${w.name} seed $seed to ${args.reference}")
    0
  }

  private def checkRows(idx: DatasetIndex, rowsHash: Int): Unit =
    if (rowsDigest(idx) != rowsHash) drift += "set-up produced different rows"

  /** End-to-end metrics, tracing off. */
  private def untraced(counter: PatternCounter, idx: DatasetIndex, expected: String, rowsHash: Int): Seq[(String, Double, String)] = {
    val setups = (1 to SetupReps).map { _ =>
      val t0 = System.nanoTime()
      val (ds, i) = setup()
      val secs = (System.nanoTime() - t0) / 1e9
      release(ds)
      checkRows(i, rowsHash)
      secs
    }
    val samples = mutable.ArrayBuffer.empty[Double]
    val start = System.nanoTime()
    while (samples.isEmpty || (failed == 0 && (samples.size < MinDetects || System.nanoTime() - start < args.seconds * 1000000000L))) {
      samples += seconds(detect(counter, idx, expected))
    }
    out(f"detect_s: ${samples.size} samples, median ${median(samples.toSeq)}%.4f s, ${tail(samples.toSeq)}")
    out(samples.map(x => f"$x%.3f").mkString("detect_s samples in order: ", " ", ""))
    out(firstSeen.map { case (k, v) => s"$k = ${Json.num(v)}" }.mkString("counters: ", ", ", ""))
    out(f"setup_s: ${setups.size} samples, median ${median(setups)}%.4f s, max ${setups.max}%.4f s")
    Seq(
      ("detect_s", median(samples.toSeq), "s"),
      ("setup_s", median(setups), "s"),
      ("ok_frac", (attempted - failed).toDouble / attempted, "frac"),
    )
  }

  /** Per-layer metrics from traced set-ups and detections, with untraced
    * detections interleaved to measure the tracing overhead.
    */
  private def traced(idx: DatasetIndex, expected: String, rowsHash: Int): Seq[(String, Double, String)] = {
    val trace = new Trace(System.nanoTime())
    val listener = new SparkCounts
    spark.sparkContext.addSparkListener(listener)
    val layer = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
    def rec(name: String, v: Double): Unit = layer.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += v

    for (rep <- 1 to 2) {
      val run = s"${w.name}/seed$seed/setup$rep"
      BenchListenerBus.drain(spark.sparkContext)
      val (j0, s0, t0) = listener.snapshot
      val setupSpan = trace.begin("setup", run)
      val genSpan = trace.begin("data.gen_rank", run, setupSpan)
      val ds = w.generate(spark, seed)
      ds.df.count()
      rec("data.gen_rank_s", trace.end(genSpan))
      val encSpan = trace.begin("data.encode", run, setupSpan)
      val i = Encoding.index(ds.df, ds.attrCols, ds.rankCol)
      rec("data.encode_s", trace.end(encSpan))
      trace.end(setupSpan)
      BenchListenerBus.drain(spark.sparkContext)
      val (j1, s1, t1) = listener.snapshot
      checkRows(i, rowsHash)
      checkRepeat(Seq("spark.jobs" -> (j1 - j0).toDouble))
      rec("spark.jobs", (j1 - j0).toDouble)
      rec("spark.stages", (s1 - s0).toDouble)
      rec("spark.tasks", (t1 - t0).toDouble)
      // Layers inside the set-up, re-run on their own.
      val dictSpan = trace.begin("data.dict", run)
      Encoding.dictionaries(ds.df, ds.attrCols)
      rec("data.dict_s", trace.end(dictSpan))
      release(ds)
      val buildSpan = trace.begin("index.build", run)
      new DatasetIndex(i.rows, i.domainSizes, i.attrNames, i.domains)
      rec("index.build_s", trace.end(buildSpan))
    }

    val plain = new LocalPatternCounter(idx)
    val start = System.nanoTime()
    var rep = 0
    while (rep == 0 || (failed == 0 && (rep < 2 || System.nanoTime() - start < args.seconds * 1000000000L))) {
      rep += 1
      rec("detect_untraced_s", seconds(detect(plain, idx, expected)))
      val run = s"${w.name}/seed$seed/detect$rep"
      val tc = new TracingCounter(plain, w.kMin)
      val a0 = allocatedBytes()
      val d @ (t0, t1, r) = detect(tc, idx, expected)
      val alloc = allocatedBytes() - a0
      val secs = seconds(d)
      val span = trace.spans.size
      trace.add("detect", run, t0, t1, -1, Nil)
      if (tc.calls > 0)
        trace.add("count.batch", run, tc.firstStart, tc.lastEnd, span,
          Seq("busy_ns" -> tc.nanos.toDouble, "calls" -> tc.calls.toDouble, "patterns" -> tc.patterns.toDouble))
      val countS = tc.nanos / 1e9
      rec("detect_traced_s", secs)
      rec("count.s", countS)
      rec("search.self_s", secs - countS)
      rec("search.self_share", (secs - countS) / secs)
      rec("search.alloc_mb", alloc / 1e6)
      val counts = Seq(
        "count.calls" -> tc.calls.toDouble,
        "count.patterns" -> tc.patterns.toDouble,
        "count.patterns_incremental" -> tc.incremental.toDouble,
        "count.distinct" -> tc.distinct.size.toDouble,
        "count.row_reads" -> tc.rowReads.toDouble,
      ) ++ r.toSeq.flatMap(res => Seq("search.res_max" -> res.resByK.valuesIterator.map(_.size).maxOption.getOrElse(0).toDouble))
      checkRepeat(counts)
      counts.foreach { case (n, v) => rec(n, v) }
    }

    // 0 for a layer no successful detection reached
    def med(n: String): Double = layer.get(n).map(xs => median(xs.toSeq)).getOrElse(0.0)
    val patterns = med("count.patterns")
    val metrics = Seq(
      ("data.gen_rank_s", med("data.gen_rank_s"), "s"),
      ("data.dict_s", med("data.dict_s"), "s"),
      ("data.encode_s", med("data.encode_s"), "s"),
      ("spark.jobs", med("spark.jobs"), "count"),
      ("spark.stages", med("spark.stages"), "count"),
      ("spark.tasks", med("spark.tasks"), "count"),
      ("index.build_s", med("index.build_s"), "s"),
      ("index.bytes", idx.domainSizes.map(_.toDouble).sum * ((idx.size + 63) / 64) * 8, "bytes"),
      ("count.s", med("count.s"), "s"),
      ("count.calls", med("count.calls"), "count"),
      ("count.patterns", patterns, "count"),
      ("count.ns_per_pattern", med("count.s") * 1e9 / math.max(1.0, patterns), "ns"),
      ("count.patterns_per_call", patterns / math.max(1.0, med("count.calls")), "count"),
      ("count.patterns_incremental", med("count.patterns_incremental"), "count"),
      ("count.distinct", med("count.distinct"), "count"),
      ("count.recount_ratio", patterns / math.max(1.0, med("count.distinct")), "ratio"),
      ("count.row_reads", med("count.row_reads"), "count"),
      ("search.self_s", med("search.self_s"), "s"),
      ("search.self_share", med("search.self_share"), "frac"),
      ("search.examined", firstSeen.getOrElse("search.examined", 0.0), "count"),
      ("search.k_done", firstSeen.getOrElse("search.k_done", 0.0), "count"),
      ("search.res_sum", firstSeen.getOrElse("search.res_sum", 0.0), "count"),
      ("search.res_max", med("search.res_max"), "count"),
      ("search.alloc_mb", med("search.alloc_mb"), "MB"),
      ("trace.detect_s", med("detect_traced_s"), "s"),
      ("trace.overhead", med("detect_traced_s") / med("detect_untraced_s"), "ratio"),
    )
    val env = Seq(
      "workload" -> w.name,
      "seed" -> seed.toString,
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "spark_master" -> spark.sparkContext.master,
      "spark_version" -> spark.version,
      "git_commit" -> args.commit,
      "source_digest" -> args.sourceDigest,
    )
    trace.write(args.traceFile, env, metrics.map { case (n, v, _) => n -> v })
    out(s"trace written to ${args.traceFile} (${trace.spans.size} spans)")
    metrics
  }
}
