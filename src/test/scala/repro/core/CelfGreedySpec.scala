package repro.core

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.TestData

class CelfGreedySpec extends AnyFunSuite {

  test("empty graph yields empty solution") {
    val (s, v) = CelfGreedy.select(new Digraph(10), 3, new OracleCounter)
    assert(s.isEmpty && v == 0)
  }

  test("k = 0 yields empty solution") {
    val g = TestData.digraphOf(5, Seq((0, 1)))
    val (s, v) = CelfGreedy.select(g, 0, new OracleCounter)
    assert(s.isEmpty && v == 0)
  }

  test("single best node is picked first on a star") {
    val g = TestData.digraphOf(8, Seq((0, 1), (0, 2), (0, 3), (5, 6)))
    val (s, v) = CelfGreedy.select(g, 1, new OracleCounter)
    assert(s == Seq(0))
    assert(v == 4)
  }

  test("greedy covers disjoint components with k = 2") {
    val g = TestData.digraphOf(10, Seq((0, 1), (0, 2), (5, 6), (5, 7)))
    val (s, v) = CelfGreedy.select(g, 2, new OracleCounter)
    assert(s.toSet == Set(0, 5))
    assert(v == 6)
  }

  test("value equals the spread of the selected seeds") {
    for (seed <- 0 until 10) {
      val g = TestData.digraphOf(25, TestData.randomEdges(25, 70, seed.toLong))
      val (s, v) = CelfGreedy.select(g, 4, new OracleCounter)
      assert(g.spreadOf(s) == v, s"seed=$seed")
    }
  }

  test("CELF value matches naive greedy value on random graphs") {
    for (seed <- 0 until 12) {
      val g = TestData.digraphOf(20, TestData.randomEdges(20, 50, 100L + seed))
      val (_, vLazy)  = CelfGreedy.select(g, 3, new OracleCounter)
      val (_, vNaive) = CelfGreedy.selectNaive(g, 3, new OracleCounter)
      assert(vLazy == vNaive, s"seed=$seed lazy=$vLazy naive=$vNaive")
    }
  }

  test("CELF picks naive greedy's seeds, adding no zero-gain seed") {
    for (seed <- 0 until 400) {
      val rng = new Random(seed)
      val n   = 2 + rng.nextInt(30)
      val g   = TestData.digraphOf(n, TestData.randomEdges(n, rng.nextInt(2 * n), 500L + seed))
      val k   = 1 + rng.nextInt(6)
      val lazySel  = CelfGreedy.select(g, k, new OracleCounter)
      val naiveSel = CelfGreedy.selectNaive(g, k, new OracleCounter)
      assert(lazySel == naiveSel, s"seed=$seed")
    }
    val chain = TestData.digraphOf(4, Seq((0, 1), (1, 2)))
    assert(CelfGreedy.select(chain, 3, new OracleCounter) == ((Seq(0), 3)))
  }

  test("lazy evaluation uses no more oracle calls than naive greedy") {
    for (seed <- 0 until 8) {
      val g = TestData.digraphOf(30, TestData.randomEdges(30, 90, 200L + seed))
      val cLazy  = new OracleCounter
      val cNaive = new OracleCounter
      CelfGreedy.select(g, 5, cLazy)
      CelfGreedy.selectNaive(g, 5, cNaive)
      assert(cLazy.calls <= cNaive.calls, s"seed=$seed")
    }
  }

  test("achieves (1 - 1/e) OPT on random graphs") {
    for (seed <- 0 until 10) {
      val g = TestData.digraphOf(14, TestData.randomEdges(14, 35, 300L + seed))
      val (_, v)   = CelfGreedy.select(g, 2, new OracleCounter)
      val (_, opt) = BruteForce.select(g, 2)
      assert(v >= (1 - 1 / math.E) * opt - 1e-9, s"seed=$seed v=$v opt=$opt")
    }
  }

  test("solution size capped at min(k, positive-gain nodes)") {
    val g = TestData.digraphOf(6, Seq((0, 1)))
    val (s, v) = CelfGreedy.select(g, 5, new OracleCounter)
    assert(v == 2)
    assert(s.size <= 5)
    assert(s.contains(0))
  }
}
