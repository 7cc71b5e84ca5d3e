package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData

class SieveAdnSpec extends AnyFunSuite {

  private def newSieve(k: Int = 2, eps: Double = 0.1, universe: Int = 20) =
    new SieveAdn(k, eps, universe, new OracleCounter)

  test("empty instance has value 0 and empty solution") {
    val s = newSieve()
    assert(s.currentValue == 0)
    assert(s.solution.isEmpty)
    assert(s.delta == 0)
  }

  test("constructor validates k and eps") {
    val c = new OracleCounter
    intercept[IllegalArgumentException](new SieveAdn(0, 0.1, 10, c))
    intercept[IllegalArgumentException](new SieveAdn(2, 0.0, 10, c))
    intercept[IllegalArgumentException](new SieveAdn(2, 1.0, 10, c))
  }

  test("a single edge yields the source as a solution of value 2") {
    val s = newSieve()
    s.process(Seq((0, 1)))
    assert(s.currentValue == 2)
    assert(s.solution.nonEmpty)
    assert(s.delta == 2)
  }

  test("duplicate and self-loop edges are no-ops") {
    val s = newSieve()
    s.process(Seq((0, 1)))
    val calls = s.counter.calls
    s.process(Seq((0, 1), (3, 3)))
    assert(s.counter.calls == calls, "no oracle calls for no-op batch")
    assert(s.currentValue == 2)
  }

  test("value never decreases as edges accumulate (ADN monotonicity)") {
    val s      = newSieve(k = 3)
    val stream = TestData.randomEdges(20, 80, 11L)
    var prev   = 0
    stream.grouped(5).foreach { batch =>
      s.process(batch)
      val v = s.currentValue
      assert(v >= prev, s"value dropped from $prev to $v")
      prev = v
    }
  }

  test("solution size is bounded by k") {
    for (k <- 1 to 4) {
      val s = new SieveAdn(k, 0.2, 30, new OracleCounter)
      s.process(TestData.randomEdges(30, 120, 5L))
      assert(s.solution.size <= k)
      assert(s.solution.distinct.size == s.solution.size)
    }
  }

  test("delta tracks the max singleton spread") {
    val s = newSieve(k = 2, universe = 10)
    // star from 0: spread(0) = 4
    s.process(Seq((0, 1), (0, 2), (0, 3)))
    assert(s.delta == 4)
    // longer chain from 5: 5->6->7->8->9, spread(5) = 5
    s.process(Seq((5, 6), (6, 7), (7, 8), (8, 9)))
    assert(s.delta == 5)
  }

  test("threshold count is O(eps^-1 log k) (Theorem 3 space shape)") {
    val s = new SieveAdn(10, 0.1, 100, new OracleCounter)
    s.process(TestData.randomEdges(100, 300, 3L))
    val bound = (math.log(2.0 * 10 * 10) / math.log1p(0.1)).toInt + 2
    assert(s.thresholdCount > 0)
    assert(s.thresholdCount <= bound, s"|Θ|=${s.thresholdCount} bound=$bound")
  }

  test("solution value equals the spread of the returned seeds") {
    val s = newSieve(k = 3, universe = 25)
    s.process(TestData.randomEdges(25, 100, 17L))
    assert(s.graph.spreadOf(s.solution) == s.currentValue)
  }

  test("achieves (1/2 - eps) OPT on random ADN streams (Theorem 2)") {
    val eps = 0.1
    for (seed <- 0 until 15) {
      val edges = TestData.randomEdges(14, 40, seed.toLong)
      val s     = new SieveAdn(2, eps, 14, new OracleCounter)
      edges.grouped(4).foreach(b => s.process(b))
      val g        = TestData.digraphOf(14, edges)
      val (_, opt) = BruteForce.select(g, 2)
      assert(
        s.currentValue >= (0.5 - eps) * opt - 1e-9,
        s"seed=$seed got ${s.currentValue} vs OPT $opt",
      )
    }
  }

  test("achieves (1/2 - eps) OPT fed one edge at a time") {
    val eps = 0.2
    for (seed <- 20 until 30) {
      val edges = TestData.randomEdges(12, 30, seed.toLong)
      val s     = new SieveAdn(3, eps, 12, new OracleCounter)
      edges.foreach(e => s.process(Seq(e)))
      val (_, opt) = BruteForce.select(TestData.digraphOf(12, edges), 3)
      assert(s.currentValue >= (0.5 - eps) * opt - 1e-9, s"seed=$seed")
    }
  }

  test("duplicate node re-arrival is handled (same node in several batches)") {
    val s = newSieve(k = 2, universe = 10)
    s.process(Seq((0, 1)))
    s.process(Seq((0, 2)))
    s.process(Seq((0, 3)))
    assert(s.currentValue == 4) // 0 reaches {0,1,2,3}
  }

  test("copyInstance is independent of the original") {
    val g = new Digraph(10)
    val s = new SieveAdn(2, 0.1, new OracleCounter, g, cutoff = 10)
    SieveAdnSpec.addAndUpdate(s, Seq((0, 1), (2, 3)), expiry = 10)
    val c = s.copyInstance(5)
    // Expiry 7 is visible at cutoff 5 only.
    SieveAdnSpec.addAndUpdate(c, Seq((0, 4), (0, 5)), expiry = 7)
    assert(c.currentValue == 6)
    // 0 reaches {0,1}; 2 reaches {2,3}; best pair {0,2} has value 4.
    assert(s.currentValue == 4)
    assert(g.spreadOf(Seq(0, 2), s.cutoff) == 4)
    assert(g.expiryOf(0, 4) == 7 && !g.reachOf(0, s.cutoff).contains(4))
  }

  test("copyInstance preserves value and solution") {
    val s = new SieveAdn(3, 0.1, new OracleCounter, new Digraph(20), cutoff = 10)
    SieveAdnSpec.addAndUpdate(s, TestData.randomEdges(20, 60, 23L), expiry = 10)
    val c = s.copyInstance(5)
    assert(c.currentValue == s.currentValue)
    assert(c.solution == s.solution)
    assert(c.graph eq s.graph)
  }

  test("an instance cannot be copied at or above its cutoff, nor a shared one fed by process") {
    val s = new SieveAdn(2, 0.1, new OracleCounter, new Digraph(10), cutoff = 10)
    intercept[IllegalArgumentException](s.copyInstance(10))
    intercept[IllegalArgumentException](newSieve().copyInstance(0))
    intercept[IllegalArgumentException](s.process(Seq((0, 1))))
  }

  test("a batch with an edge outside the universe changes nothing") {
    val s = newSieve(universe = 10)
    s.process(Seq((0, 1)))
    intercept[IllegalArgumentException](s.process(Seq((1, 2), (3, 10))))
    assert(s.graph.edgeCount == 1 && s.currentValue == 2)
  }

  test("oracle calls grow with candidates, not with universe size") {
    val cBig   = new OracleCounter
    val sBig   = new SieveAdn(2, 0.1, 10000, cBig)
    sBig.process(Seq((0, 1)))
    val cSmall = new OracleCounter
    val sSmall = new SieveAdn(2, 0.1, 10, cSmall)
    sSmall.process(Seq((0, 1)))
    assert(cBig.calls == cSmall.calls)
  }
}

object SieveAdnSpec {

  /** Add `edges` to a shared-graph instance's graph at `expiry` and feed it
    * those that were new.
    */
  def addAndUpdate(s: SieveAdn, edges: Seq[(Int, Int)], expiry: Int): Unit = {
    val added = edges.filter { case (u, v) => s.graph.addEdge(u, v, expiry) }
    s.update(added.map(_._1).toArray, added.map(_._2).toArray)
  }
}
