package repro.ic

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.core.{CelfGreedy, OracleCounter}
import repro.tdn.TimedEdge

class DimSpec extends AnyFunSuite {

  test("empty tracker returns no seeds") {
    val d = new DimTracker(3, universe = 10)
    assert(d.querySolution.isEmpty)
    d.endStep()
    assert(d.querySolution.isEmpty)
  }

  test("finds the hub of a heavily repeated star") {
    val d = new DimTracker(1, universe = 10, beta = 4)
    // 0 -> {1..5} repeated so p ~ 1 and lifetime outlives the test.
    val batch = for { i <- 1 to 5; _ <- 1 to 30 } yield TimedEdge(0, i, 10)
    d.observe(batch)
    assert(d.querySolution == Seq(0))
  }

  test("solution adapts after the hub expires") {
    val d = new DimTracker(1, universe = 10, beta = 4)
    val star0 = for { i <- 1 to 4; _ <- 1 to 30 } yield TimedEdge(0, i, 1)
    d.observe(star0)
    assert(d.querySolution == Seq(0))
    d.endStep() // star around 0 expires
    val star5 = for { i <- 6 to 9; _ <- 1 to 30 } yield TimedEdge(5, i, 3)
    d.observe(star5)
    assert(d.querySolution == Seq(5))
  }

  test("returns at most k distinct alive nodes") {
    val d = new DimTracker(3, universe = 15, beta = 2)
    d.observe(TestData.randomTimedStream(15, 1, 40, 5, 3L).head)
    val s = d.querySolution
    assert(s.size <= 3 && s.distinct.size == s.size)
  }

  test("quality is reasonable vs reachability greedy on dense high-p graphs") {
    for (seed <- 0 until 3) {
      val edges = TestData.randomEdges(15, 40, 700L + seed)
      val d     = new DimTracker(3, universe = 15, beta = 8, seed = seed.toLong)
      // Repeat each edge so p ~ 1 and the IC graph ~ deterministic reachability.
      d.observe(edges.flatMap(e => Seq.fill(40)(TimedEdge(e._1, e._2, 5))))
      val g        = TestData.digraphOf(15, edges)
      val (_, gv)  = CelfGreedy.select(g, 3, new OracleCounter)
      val dv       = g.spreadOf(d.querySolution)
      assert(dv >= 0.6 * gv, s"seed=$seed DIM $dv vs greedy $gv")
    }
  }

  test("incremental insertion extends existing sketches") {
    val d = new DimTracker(1, universe = 10, beta = 8)
    // First a chain end 1->2 with p~1; then prepend 0->1: sketches containing 1
    // should extend towards 0 incrementally (or on rebuild); hub becomes 0.
    d.observe(Seq.fill(40)(TimedEdge(1, 2, 10)))
    assert(d.querySolution == Seq(1))
    d.endStep()
    d.observe(Seq.fill(40)(TimedEdge(0, 1, 10)))
    assert(d.querySolution == Seq(0))
  }

  test("sketches holding a departed node go stale") {
    val d = new DimTracker(1, universe = 4, beta = 2)
    d.observe(Seq.fill(40)(TimedEdge(0, 1, 1)))
    assert(d.querySolution == Seq(0))
    // Everything expires. Node 0 had only out-edges, so its {0} sketches hold
    // no head of a fallen pair: only its departure makes them stale.
    d.endStep()
    assert(d.querySolution.isEmpty)
  }
}
