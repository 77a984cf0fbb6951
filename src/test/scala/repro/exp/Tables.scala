package repro.exp

import repro.exp.Experiments.{CaseStudy, TimingRow}
import repro.shapley.ResultAnalysis

/** The printed tables T1–T6 of EXPERIMENTS.md: one renderer per table,
  * which holds its title and the lines printed under it.
  */
object Tables {

  /** Render `rows` under `header` with aligned columns. */
  private def render(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(r => r(i).length).max)
    def line(r: Seq[String]): String =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    val sep = widths.map("-" * _).mkString("  ")
    (s"== $title ==" +: line(header) +: sep +: rows.map(line)).mkString("\n")
  }

  private def fmtMillis(ms: Long, timedOut: Boolean): String =
    if (timedOut) "TO" else if (ms < 10000) s"${ms}ms" else f"${ms / 1000.0}%.1fs"

  /** One row per timed run; a timed-out or skipped run shows "TO" and no
    * `examined`, a run with no computed k no `max|Res|`.
    */
  private def timings(title: String, rows: Seq[TimingRow]): String =
    render(title,
      Seq("dataset", "problem", "algo", rows.headOption.map(_.paramName).getOrElse("param"),
          "time", "examined", "max|Res|"),
      rows.map(r => Seq(r.dataset, r.problem, r.algo, r.param.toString,
        fmtMillis(r.millis, r.timedOut),
        if (r.timedOut) "-" else r.examined.toString,
        if (r.resCells.isEmpty) "-" else r.resCells.max.toString)))

  /** T1, followed by the §III "<100 groups" line. */
  def t1(rows: Seq[TimingRow]): String = {
    val (u, t) = Experiments.under100Share(rows)
    timings("T1 / Figures 4-5: runtime vs #attributes", rows) + "\n" +
      f"result cells with <100 groups: $u/$t (${100.0 * u / math.max(1, t)}%.2f%%; paper: 97.58%%)"
  }

  def t2(rows: Seq[TimingRow]): String =
    timings("T2 / Figures 6-7: runtime vs size threshold", rows)

  /** T3, then T3b (its examined gains), followed by the gains the paper quotes. */
  def t3(rows: Seq[TimingRow]): String =
    timings("T3 / Figures 8-9: runtime vs k range", rows) + "\n" +
      render("T3b: patterns-examined gain of optimized vs ITERTD",
        Seq("dataset", "problem", "kMax", "IterTD", "optimized", "gain%"),
        Experiments.examinedGains(rows).map(g => Seq(g.dataset, g.problem, g.kMax.toString,
          g.baseExamined.toString, g.optExamined.toString, f"${g.gainPct}%.2f"))) +
      "\npaper gains: global 39.35% (COMPAS) 56.87% (student) 29.27% (credit); " +
      "prop 39.60% / 20.49% / 56.83%"

  /** T4: each dataset's top-6 aggregated Shapley values. */
  def t4(explanations: Seq[(String, ResultAnalysis.Explanation)]): String =
    explanations.map { case (name, ex) =>
      render(s"T4 / Figure 10: aggregated Shapley — $name, group ${ex.rendered}",
        Seq("attribute", "aggregated Shapley"),
        ex.aggShapley.take(6).map { case (a, v) => Seq(a, f"$v%.4f") })
    }.mkString("\n")

  /** T5: each dataset's top-Shapley attribute distribution, top-k vs group. */
  def t5(explanations: Seq[(String, ResultAnalysis.Explanation)]): String =
    explanations.map { case (name, ex) =>
      render(s"T5 / Figure 10d-f: $name, attribute '${ex.topAttr}', group ${ex.rendered}",
        Seq("value", "top-k share", "group share"),
        ex.topkDist.zip(ex.groupDist).map { case ((v, tk), (_, g)) => Seq(v, f"$tk%.3f", f"$g%.3f") })
    }.mkString("\n")

  /** T6 (groups per method) followed by T6b (top-5 divergence groups). */
  def t6(cs: CaseStudy): String =
    render("T6 / VI-D: detected groups per method (paper: 2 / 5 / 28)",
      Seq("method", "#groups", "groups"),
      Seq(
        Seq("PropBounds", cs.propPatterns.size.toString,
          cs.propPatterns.map(cs.index.render).toSeq.sorted.mkString("; ")),
        Seq("GlobalBounds", cs.globalPatterns.size.toString,
          cs.globalPatterns.map(cs.index.render).toSeq.sorted.mkString("; ")),
        Seq("Divergence[27]", cs.divergenceGroups.size.toString,
          cs.divergenceGroups.take(5).map(g => cs.index.render(g.p)).mkString("; ") + "; ..."),
      )) + "\n" +
      render("T6b: top-5 groups by divergence",
        Seq("group", "support", "outcome", "divergence"),
        cs.divergenceGroups.take(5).map(g =>
          Seq(cs.index.render(g.p), g.support.toString, f"${g.outcome}%.3f", f"${g.divergence}%.3f")))
}
