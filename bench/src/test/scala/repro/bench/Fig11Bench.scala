package repro.bench

import repro.SparkSpec
import repro.experiments.Experiments

/** Fig. 11 — HistApprox vs Greedy across budgets k (ε = 0.2), at
  * `Experiments.fig11`'s protocol.
  *
  * Paper shapes asserted: solution quality stays ≳ 0.9 of Greedy across the
  * whole sweep and HistApprox stays cheaper than Greedy. Known deviation
  * (recorded in EXPERIMENTS.md): the call ratio *rises* with k instead of
  * falling. The data scale does not explain it: at one interaction per step
  * the alive graph holds about 1/p interactions at any scale, so the
  * paper's p = 0.001 also gives |V_t| ≤ 2,000. The cause is open.
  */
class Fig11Bench extends SparkSpec {

  test("Fig 11: k sweep") {
    val rows = Experiments.fig11(spark)
    Experiments.fig11Lines(rows).foreach(l => println(s"BENCH|Fig11| $l"))

    rows.foreach { r =>
      assert(r.valueRatioToGreedy >= 0.85, s"${r.dataset} k=${r.param}: ${r.valueRatioToGreedy}")
      assert(r.callRatioToGreedy < 1.05, s"${r.dataset} k=${r.param}: ${r.callRatioToGreedy}")
    }
  }
}
