package repro.bench

import repro.SparkSpec
import repro.experiments.Experiments

/** Fig. 12 — HistApprox vs Greedy across lifetime caps L (ε = 0.2, k = 10),
  * at `Experiments.fig12`'s protocol, which keeps L ≫ 1/p so truncation never
  * binds.
  *
  * Paper shape asserted: L does not affect HistApprox's performance — in our
  * deterministic replay the ratios are bit-identical across L.
  */
class Fig12Bench extends SparkSpec {

  test("Fig 12: L sweep") {
    val rows = Experiments.fig12(spark)
    Experiments.fig12Lines(rows).foreach(l => println(s"BENCH|Fig12| $l"))

    rows.groupBy(_.dataset).foreach { case (d, rs) =>
      val v = rs.map(_.valueRatioToGreedy)
      val c = rs.map(_.callRatioToGreedy)
      assert(v.max - v.min < 1e-6, s"$d: value ratio varies with L ($v)")
      assert(c.max - c.min < 1e-6, s"$d: call ratio varies with L ($c)")
      assert(v.head >= 0.85 && c.head < 1.0)
    }
  }
}
