package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.TestData
import repro.tdn.TimedEdge

class RandomBruteSpec extends AnyFunSuite {

  test("RandomSelect draws k distinct present nodes") {
    val g   = TestData.digraphOf(30, TestData.randomEdges(30, 60, 1L))
    val rng = new Random(5L)
    val s   = RandomSelect.select(g, 5, rng)
    assert(s.size == 5)
    assert(s.distinct.size == 5)
    assert(s.forall(g.nodeArray.contains))
  }

  test("RandomSelect returns all nodes when fewer than k") {
    val g = TestData.digraphOf(10, Seq((0, 1), (2, 3)))
    val s = RandomSelect.select(g, 10, new Random(1L))
    assert(s.toSet == Set(0, 1, 2, 3))
  }

  test("RandomSelect is deterministic under a fixed seed") {
    val g = TestData.digraphOf(20, TestData.randomEdges(20, 40, 2L))
    val a = RandomSelect.select(g, 4, new Random(9L))
    val b = RandomSelect.select(g, 4, new Random(9L))
    assert(a == b)
  }

  test("BruteForce finds the known optimum on a two-star graph") {
    val g = TestData.digraphOf(12, Seq((0, 1), (0, 2), (0, 3), (6, 7), (6, 8)))
    val (s, v) = BruteForce.select(g, 2)
    assert(s.toSet == Set(0, 6))
    assert(v == 7)
  }

  test("BruteForce on empty graph") {
    val (s, v) = BruteForce.select(new Digraph(5), 2)
    assert(s.isEmpty && v == 0)
  }

  test("BruteForce dominates greedy on random graphs") {
    for (seed <- 0 until 10) {
      val g = TestData.digraphOf(12, TestData.randomEdges(12, 30, 400L + seed))
      val (_, opt)    = BruteForce.select(g, 3)
      val (_, greedy) = CelfGreedy.select(g, 3, new OracleCounter)
      assert(opt >= greedy, s"seed=$seed")
    }
  }

  test("BruteForce refuses intractable instances") {
    val g = TestData.digraphOf(40, TestData.randomEdges(40, 80, 1L))
    intercept[IllegalArgumentException](BruteForce.select(g, 8))
  }

  test("GreedyTracker recomputes on the decayed graph") {
    val tr = new GreedyTracker(1, universe = 10)
    tr.observe(Seq(TimedEdge(0, 1, 1), TimedEdge(0, 2, 1)))
    assert(tr.querySolution == Seq(0))
    tr.endStep()
    tr.observe(Seq(TimedEdge(5, 6, 1)))
    assert(tr.querySolution == Seq(5))
    tr.endStep()
    tr.observe(Nil)
    assert(tr.querySolution.isEmpty)
  }

  test("RandomTracker stays within the alive node set") {
    val tr = new RandomTracker(3, universe = 20, seed = 3L)
    tr.observe(Seq(TimedEdge(0, 1, 2), TimedEdge(2, 3, 2)))
    assert(tr.querySolution.toSet.subsetOf(Set(0, 1, 2, 3)))
    tr.endStep()
    assert(tr.oracleCalls == 0)
  }
}
