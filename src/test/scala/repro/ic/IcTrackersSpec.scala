package repro.ic

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{BasicReduction, GreedyTracker, HistApprox, RandomTracker}
import repro.tdn.TimedEdge

class IcTrackersSpec extends AnyFunSuite {

  private def star(hub: Int, leaves: Range, reps: Int, life: Int) =
    for { i <- leaves; _ <- 1 to reps } yield TimedEdge(hub, i, life)

  test("ImmTracker finds the dominant hub on the alive graph") {
    val t = new ImmTracker(1, universe = 12, maxRR = 2000)
    t.observe(star(0, 1 to 6, reps = 20, life = 5))
    assert(t.querySolution == Seq(0))
    t.endStep()
  }

  test("ImmTracker forgets the hub after expiry") {
    val t = new ImmTracker(1, universe = 12, maxRR = 2000)
    t.observe(star(0, 1 to 6, reps = 20, life = 1))
    assert(t.querySolution == Seq(0))
    t.endStep()
    t.observe(star(7, 8 to 11, reps = 20, life = 3))
    assert(t.querySolution == Seq(7))
  }

  test("ImmTracker on empty graph returns nothing") {
    val t = new ImmTracker(2, universe = 5)
    assert(t.querySolution.isEmpty)
  }

  test("TimPlusTracker finds the dominant hub on the alive graph") {
    val t = new TimPlusTracker(1, universe = 12, maxRR = 2000)
    t.observe(star(0, 1 to 6, reps = 20, life = 5))
    assert(t.querySolution == Seq(0))
  }

  test("TimPlusTracker adapts to decay") {
    val t = new TimPlusTracker(1, universe = 12, maxRR = 2000)
    t.observe(star(0, 1 to 6, reps = 20, life = 1))
    t.endStep()
    t.observe(star(7, 8 to 11, reps = 20, life = 3))
    assert(t.querySolution == Seq(7))
  }

  test("IC trackers report zero oracle calls (they never use the reachability oracle)") {
    val a = new ImmTracker(1, 10)
    val b = new TimPlusTracker(1, 10)
    val c = new DimTracker(1, 10)
    Seq(a.oracleCalls, b.oracleCalls, c.oracleCalls).foreach(x => assert(x == 0L))
  }

  test("tracker names match the paper's method names") {
    assert(new ImmTracker(1, 10).name == "IMM")
    assert(new TimPlusTracker(1, 10).name == "TIM+")
    assert(new DimTracker(1, 10).name == "DIM")
  }

  test("every tracker rejects k < 1 or a degenerate size at construction") {
    val makers: Seq[() => Any] = Seq(
      () => new GreedyTracker(0, 10),
      () => new RandomTracker(0, 10, seed = 1L),
      () => new HistApprox(0, 0.1, 5, 10),
      () => new BasicReduction(0, 0.1, 5, 10),
      () => new DimTracker(0, 10),
      () => new ImmTracker(0, 10),
      () => new TimPlusTracker(0, 10),
      () => new DimTracker(1, 10, beta = 0),
      () => new ImmTracker(1, 10, maxRR = 0),
      () => new TimPlusTracker(1, 10, maxRR = 0),
    )
    makers.foreach(make => intercept[IllegalArgumentException](make()))
  }
}
