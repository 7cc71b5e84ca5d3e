package repro.core

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.tdn.TimedEdge

/** Differential test of [[BasicReduction]]'s runs against
  * [[PerInstanceBasicReduction]], the one-SieveADN-per-instance design they
  * replaced: both are driven through the same random streams, and after every
  * step they must agree on the seeds, the value, the cumulative oracle calls
  * and, for every A_i, on Δ, the value, the solution and |Θ|.
  */
class BasicReductionRunsSpec extends AnyFunSuite {

  /** An empty step, or 1–6 edges. Half are drawn from `pool`, so pairs repeat
    * with lifetimes that rise and fall; an eighth are self-loops; lifetimes
    * reach up to L + 5.
    */
  private def batch(rnd: Random, universe: Int, maxL: Int, pool: IndexedSeq[(Int, Int)]): Seq[TimedEdge] =
    if (rnd.nextInt(6) == 0) Nil
    else
      Seq.fill(1 + rnd.nextInt(6)) {
        val (u, v) =
          if (rnd.nextBoolean()) pool(rnd.nextInt(pool.length))
          else if (rnd.nextInt(8) == 0) { val u = rnd.nextInt(universe); (u, u) }
          else (rnd.nextInt(universe), rnd.nextInt(universe))
        TimedEdge(u, v, 1 + rnd.nextInt(maxL + 5))
      }

  private def same(b: BasicReduction, r: PerInstanceBasicReduction, at: String): Unit = {
    assert(b.querySolution == r.querySolution, s"$at: seeds")
    assert(b.currentValue == r.currentValue, s"$at: value")
    assert(b.oracleCalls == r.oracleCalls, s"$at: oracle calls")
    for (i <- 1 to r.maxLifetime) {
      val (x, y) = (b.instance(i), r.instance(i))
      assert(x.delta == y.delta, s"$at: A_$i Δ")
      assert(x.currentValue == y.currentValue, s"$at: A_$i value")
      assert(x.solution == y.solution, s"$at: A_$i solution")
      assert(x.thresholdCount == y.thresholdCount, s"$at: A_$i |Θ|")
    }
    assert(b.runCount <= r.maxLifetime, s"$at: ${b.runCount} runs")
  }

  test("runs agree with one instance per cutoff after every step") {
    var shared = 0 // steps where some run held several fed instances
    for (seed <- 1 to 60) {
      val rnd      = new Random(seed)
      val universe = 8 + rnd.nextInt(60)
      val maxL     = 2 + rnd.nextInt(60)
      val k        = 1 + rnd.nextInt(5)
      val eps      = Seq(0.1, 0.2, 0.3)(rnd.nextInt(3))
      val pool     = IndexedSeq.fill(4)((rnd.nextInt(universe), rnd.nextInt(universe)))
      val runs     = new BasicReduction(k, eps, maxL, universe)
      val ref      = new PerInstanceBasicReduction(k, eps, maxL, universe)
      for (step <- 0 until 50) {
        val b  = batch(rnd, universe, maxL, pool)
        val at = s"seed $seed (|V| $universe, L $maxL, k $k, ε $eps) step $step"
        runs.observe(b)
        ref.observe(b)
        same(runs, ref, at)
        if ((1 until maxL).exists(i => (runs.instance(i) eq runs.instance(i + 1)) && runs.instance(i).delta > 0))
          shared += 1
        runs.endStep()
        ref.endStep()
        same(runs, ref, s"$at, after endStep")
      }
    }
    assert(shared > 0, "no run ever stood for several fed instances")
  }
}
