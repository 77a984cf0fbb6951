package repro.bench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}

import scala.collection.mutable

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageCompleted, SparkListenerTaskEnd}

import repro.core.{Pattern, PatternCounter}

/** Delegating [[PatternCounter]] that times and counts every call into
  * the counting layer. Only the traced run uses it; `nanos` covers the
  * inner `countBatch` calls and nothing of the bookkeeping done here.
  *
  * @param kMin first k of the workload's range; patterns counted at a
  *             larger k are the incremental (or repeated) part of the run
  */
final class TracingCounter(inner: PatternCounter, kMin: Int) extends PatternCounter {
  var nanos = 0L
  var calls = 0L
  var patterns = 0L
  var incremental = 0L
  var rowReads = 0L
  var firstStart = -1L
  var lastEnd = -1L
  val distinct: mutable.HashSet[Pattern] = mutable.HashSet.empty

  override def width: Int = inner.width
  override def domainSizes: IndexedSeq[Int] = inner.domainSizes
  override def datasetSize: Long = inner.datasetSize

  override def countBatch(ps: Seq[Pattern], k: Int): Map[Pattern, (Long, Long)] = {
    val t0 = System.nanoTime()
    val out = inner.countBatch(ps, k)
    val t1 = System.nanoTime()
    if (firstStart < 0) firstStart = t0
    lastEnd = t1
    nanos += t1 - t0
    calls += 1
    val n = ps.size
    patterns += n
    if (k > kMin) incremental += n
    distinct ++= ps
    out
  }

  override def rankedRow(rank: Int): Array[Int] = {
    rowReads += 1
    inner.rankedRow(rank)
  }
}

/** Counts the Spark jobs, stages and tasks the set-up runs. */
final class SparkCounts extends SparkListener {
  @volatile var jobs = 0L
  @volatile var stages = 0L
  @volatile var tasks = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs += 1
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = stages += 1
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = tasks += 1

  def snapshot: (Long, Long, Long) = (jobs, stages, tasks)
}

/** One traced interval. Times are nanoseconds since the trace's origin;
  * `parent` is the index of the enclosing span, or -1 for a root.
  */
final case class Span(
    name: String,
    run: String,
    start: Long,
    end: Long,
    parent: Int,
    attrs: Seq[(String, Double)] = Nil,
)

/** Spans kept in memory during the run and written once at the end. */
final class Trace(origin: Long) {
  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty

  /** Open a span now; returns its index. */
  def begin(name: String, run: String, parent: Int = -1): Int = {
    val t = System.nanoTime() - origin
    spans += Span(name, run, t, t, parent)
    spans.size - 1
  }

  /** Close span `id` now; returns its duration in seconds. */
  def end(id: Int): Double = {
    val s = spans(id).copy(end = System.nanoTime() - origin)
    spans(id) = s
    (s.end - s.start) / 1e9
  }

  /** Record a span whose interval was measured elsewhere. */
  def add(name: String, run: String, start: Long, end: Long, parent: Int, attrs: Seq[(String, Double)]): Unit =
    spans += Span(name, run, start - origin, end - origin, parent, attrs)

  def write(path: Path, env: Seq[(String, String)], counters: Seq[(String, Double)]): Unit = {
    val spanJson = spans.zipWithIndex.map { case (s, i) =>
      Json.obj(
        Seq(
          "id" -> i.toString,
          "name" -> Json.str(s.name),
          "run" -> Json.str(s.run),
          "start_ns" -> s.start.toString,
          "end_ns" -> s.end.toString,
          "parent" -> s.parent.toString,
        ) ++ s.attrs.map { case (k, v) => k -> Json.num(v) }
      )
    }
    val doc = Json.obj(
      Seq(
        "env" -> Json.obj(env.map { case (k, v) => k -> Json.str(v) }),
        "counters" -> Json.obj(counters.map { case (k, v) => k -> Json.num(v) }),
        "spans" -> spanJson.mkString("[\n", ",\n", "\n]"),
      )
    )
    Files.createDirectories(path.getParent)
    Files.write(path, (doc + "\n").getBytes(StandardCharsets.UTF_8))
  }
}

/** Minimal JSON rendering; values arrive already rendered. */
object Json {
  def str(s: String): String =
    s.flatMap {
      case '"'          => "\\\""
      case '\\'         => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c            => c.toString
    }.mkString("\"", "", "\"")

  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"not a JSON number: $d")
    if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString else d.toString
  }

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
