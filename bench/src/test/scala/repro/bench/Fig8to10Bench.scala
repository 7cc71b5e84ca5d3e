package repro.bench

import repro.SparkSpec
import repro.experiments.Experiments

/** Figs. 8–10 — HistApprox(ε ∈ {0.1, 0.15, 0.2}) vs Greedy vs Random on all
  * six datasets (k = 10), at `Experiments.fig8to10Rows`' protocol.
  *
  * Paper shapes asserted: Greedy ≥ HistApprox ≫ Random in value (Fig 8);
  * HistApprox within ~8% of Greedy (Fig 9: ratio ≳ 0.9); HistApprox uses a
  * fraction of Greedy's oracle calls (Fig 10: paper 5–15× fewer at ε = 0.2).
  */
class Fig8to10Bench extends SparkSpec {

  test("Figs 8-10: HistApprox vs Greedy vs Random") {
    val rows = Experiments.fig8to10Rows(spark)
    Experiments.fig8to10Lines(rows).foreach(l => println(s"BENCH|Fig8to10| $l"))

    rows.foreach { r =>
      // Fig 8 ordering: Greedy >= Hist >> Random.
      assert(r.avgGreedyValue >= r.avgHistValue * 0.99, s"${r.dataset} eps=${r.eps}")
      assert(r.avgRandomValue < 0.5 * r.avgHistValue, s"${r.dataset} eps=${r.eps}: Random not clearly dominated")
      // Fig 9: HistApprox close to Greedy.
      assert(r.valueRatioToGreedy >= 0.85, s"${r.dataset} eps=${r.eps}: value ratio ${r.valueRatioToGreedy}")
      // Fig 10: far fewer oracle calls than Greedy.
      assert(r.callRatioToGreedy < 1.0, s"${r.dataset} eps=${r.eps}: call ratio ${r.callRatioToGreedy}")
    }
    // The densest dataset shows the paper's ε-trend most clearly: larger ε ⇒
    // fewer calls.
    val hk = rows.filter(_.dataset == "twitter-hk").sortBy(_.eps).map(_.callRatioToGreedy)
    assert(hk.last < hk.head, s"twitter-hk call ratio should fall with eps ($hk)")
  }
}
