package repro.bench

import repro.SparkSpec
import repro.exp.{Experiments, Tables}

/** Shared knobs for the bench suites. */
object BenchConfig {
  /** Per-run search timeout; the paper used 10 minutes on Python — our
    * engine is far faster, so a short cap keeps total bench time sane
    * while still exposing the baseline's blow-up.
    */
  val timeoutMs: Long = sys.env.getOrElse("REPRO_BENCH_TIMEOUT_MS", "15000").toLong

  /** At every sweep point where ITERTD and the optimized algorithm both
    * completed, both found the same number of groups at every k.
    */
  def assertSameResSizes(rows: Seq[Experiments.TimingRow]): Unit =
    for (((ds, prob, pt), rs) <- rows.groupBy(r => (r.dataset, r.problem, r.param))) {
      val done = rs.filter(!_.timedOut)
      for (b <- done.find(_.algo == "IterTD"); o <- done.find(_.algo != "IterTD"))
        assert(o.resCells == b.resCells,
          s"$ds/$prob at ${b.paramName}=$pt: ${o.algo} and IterTD disagree on |Res[k]|")
    }
}

/** T1 — Figures 4–5: runtime vs number of attributes, all three
  * algorithms, three datasets, both problem definitions.
  */
class T1AttributesBench extends SparkSpec {

  test("T1: runtime vs #attributes (Figures 4-5)") {
    val rows = Experiments.t1Attributes(spark, BenchConfig.timeoutMs)
    println(Tables.t1(rows))
    BenchConfig.assertSameResSizes(rows)

    // Shape check (paper: optimized algorithms outperform ITERTD): at the
    // largest point where both completed, the optimized algorithm's time
    // must not exceed the baseline's by more than noise.
    for ((b, o) <- Experiments.largestCommonPoint(rows)) {
      val at = s"${b.dataset}/${b.problem} at ${b.param} attrs"
      assert(o.millis <= b.millis * 1.5 + 250, s"$at: optimized ${o.millis}ms vs baseline ${b.millis}ms")
      assert(o.examined <= b.examined, s"$at: optimized examined more patterns than the baseline")
    }
    // The baseline must never finish where the optimized one timed out.
    for (((ds, prob), rs) <- rows.groupBy(r => (r.dataset, r.problem))) {
      val optTO = rs.filter(r => r.algo != "IterTD" && r.timedOut).map(_.param).toSet
      val baseOK = rs.filter(r => r.algo == "IterTD" && !r.timedOut).map(_.param).toSet
      assert(optTO.intersect(baseOK).isEmpty, s"$ds/$prob: baseline beat the optimized algorithm")
    }
  }
}

/** T2 — Figures 6–7: runtime vs size threshold τ_s. */
class T2ThresholdBench extends SparkSpec {

  test("T2: runtime vs size threshold (Figures 6-7)") {
    val rows = Experiments.t2Threshold(spark, BenchConfig.timeoutMs)
    println(Tables.t2(rows))
    BenchConfig.assertSameResSizes(rows)

    // Shape: runtime decreases (weakly, modulo noise floor) as τ_s grows.
    for (((ds, prob, algo), rs) <- rows.groupBy(r => (r.dataset, r.problem, r.algo))) {
      val done = rs.filter(!_.timedOut).sortBy(_.param)
      for (Seq(lo, hi) <- done.sliding(2) if lo.param < hi.param) {
        assert(hi.examined <= lo.examined,
          s"$ds/$prob/$algo: examined grew from τ=${lo.param} (${lo.examined}) to τ=${hi.param} (${hi.examined})")
      }
    }
  }
}

/** T3 — Figures 8–9 and the examined-patterns gain of Section VI-B. */
class T3KRangeBench extends SparkSpec {

  test("T3: runtime vs k range (Figures 8-9) and examined gain") {
    val rows = Experiments.t3KRange(spark, BenchConfig.timeoutMs)
    println(Tables.t3(rows))
    val gains = Experiments.examinedGains(rows)
    BenchConfig.assertSameResSizes(rows)

    assert(gains.nonEmpty, "no configuration completed for both algorithms")
    for (g <- gains)
      assert(g.gainPct > 0,
        s"${g.dataset}/${g.problem}: optimized examined no fewer patterns (${g.gainPct}%)")
  }
}
