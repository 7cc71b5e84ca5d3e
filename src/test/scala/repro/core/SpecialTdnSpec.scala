package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.tdn.{Tdn, TimedEdge}

/** The TDN model's special cases (Examples 3–5) drive the same algorithms:
  * ADNs (infinite lifetime), sliding windows (fixed lifetime), probabilistic
  * decay (geometric lifetime).
  */
class SpecialTdnSpec extends AnyFunSuite {

  test("ADN special case: HistApprox with infinite lifetimes matches plain SieveADN") {
    val horizon  = 1000 // "infinite" for a 20-step run
    val stream   = TestData.randomTimedStream(15, steps = 20, perStep = 2, maxL = 1, seed = 3L)
      .map(_.map(_.copy(lifetime = horizon)))
    val hist  = new HistApprox(2, 0.15, horizon, 15)
    val sieve = new SieveAdn(2, 0.15, 15, new OracleCounter)
    stream.foreach { batch =>
      hist.observe(batch)
      sieve.process(batch.map(e => (e.u, e.v)))
      assert(hist.currentValue == sieve.currentValue)
      hist.endStep()
    }
  }

  test("sliding-window special case: HistApprox tracks BasicReduction") {
    val w      = 4
    val stream = TestData.randomTimedStream(15, steps = 25, perStep = 2, maxL = 1, seed = 5L)
      .map(_.map(_.copy(lifetime = w)))
    val hist  = new HistApprox(2, 0.1, w, 15)
    val basic = new BasicReduction(2, 0.1, w, 15)
    val truth = new Tdn
    stream.foreach { batch =>
      truth.add(batch)
      hist.observe(batch); basic.observe(batch)
      val gt = truth.toDigraph(15)
      val hv = if (hist.querySolution.isEmpty) 0 else gt.spreadOf(hist.querySolution)
      val bv = if (basic.querySolution.isEmpty) 0 else gt.spreadOf(basic.querySolution)
      assert(hv >= 0.6 * bv, s"t=${truth.now}: hist $hv basic $bv")
      hist.endStep(); basic.endStep()
      truth.advance()
    }
  }

  test("geometric lifetimes keep the alive graph bounded near m/p (Example 5)") {
    val p        = 0.2
    val rng      = new java.util.Random(11L)
    val tdn      = new Tdn
    var maxAlive = 0
    for (t <- 0 until 400) {
      // Geo(p) truncated at L = 1000, by inverse CDF: U ∈ (0, 1].
      val life = math.min(1000, 1 + math.floor(math.log(1.0 - rng.nextDouble()) / math.log1p(-p)).toInt)
      tdn.add(Seq(TimedEdge(t % 50, (t + 1) % 50, life)))
      maxAlive = math.max(maxAlive, tdn.aliveCount)
      tdn.advance()
    }
    // Expected steady-state alive count = 1/p = 5; allow generous slack.
    assert(maxAlive < 30, s"alive blew past O(m/p): $maxAlive")
  }

  test("lifetime-1 streams degenerate to per-step snapshots") {
    val stream = TestData.randomTimedStream(12, steps = 10, perStep = 3, maxL = 1, seed = 7L)
    val hist   = new HistApprox(2, 0.2, 10, 12)
    stream.foreach { batch =>
      hist.observe(batch)
      // Solution must be evaluable on this step's edges alone.
      val g  = TestData.digraphOf(12, batch.map(e => (e.u, e.v)))
      val hv = if (hist.querySolution.isEmpty) 0 else g.spreadOf(hist.querySolution)
      val (_, opt) = BruteForce.select(g, 2)
      assert(hv >= (1.0 / 3 - 0.2) * opt - 1e-9)
      hist.endStep()
    }
  }
}
