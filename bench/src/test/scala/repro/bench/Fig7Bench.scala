package repro.bench

import repro.SparkSpec
import repro.experiments.{Defaults, Experiments}

/** Fig. 7 — BasicReduction vs HistApprox across lifetime skew p on the LBSN
  * datasets (ε = 0.1, k = 10), at `Experiments.fig7`'s protocol.
  *
  * Paper shapes asserted: HistApprox's value within 2% of BasicReduction's;
  * HistApprox needs ≲ 0.1× the oracle calls; BasicReduction's calls drop as p
  * grows (short lifetimes ⇒ fewer instances fed).
  */
class Fig7Bench extends SparkSpec {

  test("Fig 7: BasicReduction vs HistApprox over p") {
    val rows = Experiments.fig7(spark)
    Experiments.fig7Lines(rows).foreach(l => println(s"BENCH|Fig7| $l"))

    rows.foreach { r =>
      assert(r.valueRatio >= 0.95, s"${r.dataset} p=${r.p}: value ratio ${r.valueRatio} (paper: > 0.98)")
      assert(r.callRatio <= 0.35, s"${r.dataset} p=${r.p}: call ratio ${r.callRatio} (paper: < 0.1)")
    }
    // BasicReduction gets cheaper as lifetimes shorten (paper's 2nd finding).
    Defaults.lbsn.map(_.name).foreach { d =>
      val calls = rows.filter(_.dataset == d).sortBy(_.p).map(_.basicCalls)
      calls.sliding(2).foreach {
        case Seq(a, b) => assert(b < a, s"$d: Basic calls should fall as p rises ($calls)")
        case _         => ()
      }
    }
  }
}
