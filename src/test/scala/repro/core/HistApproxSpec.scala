package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.tdn.{Tdn, TimedEdge}

class HistApproxSpec extends AnyFunSuite {

  test("constructor validates k, eps and L") {
    intercept[IllegalArgumentException](new HistApprox(2, 0.1, 0, 10))
    intercept[IllegalArgumentException](new HistApprox(0, 0.1, 5, 10))
    intercept[IllegalArgumentException](new HistApprox(2, 0.0, 5, 10))
    intercept[IllegalArgumentException](new HistApprox(2, 1.0, 5, 10))
  }

  test("no indices before any edge arrives") {
    val h = new HistApprox(2, 0.1, 10, 10)
    assert(h.indices.isEmpty)
    assert(h.querySolution.isEmpty)
    assert(h.currentValue == 0)
  }

  test("first edge creates the instance at its lifetime index") {
    val h = new HistApprox(2, 0.1, 10, 10)
    h.observe(Seq(TimedEdge(0, 1, 4)))
    assert(h.indices == Seq(4))
  }

  test("lifetimes above L are capped at L") {
    val h = new HistApprox(2, 0.1, maxLifetime = 5, universe = 10)
    h.observe(Seq(TimedEdge(0, 1, 50)))
    assert(h.indices == Seq(5))
  }

  test("indices shift left on endStep and drop at zero") {
    val h = new HistApprox(2, 0.1, 10, 10)
    h.observe(Seq(TimedEdge(0, 1, 3)))
    h.endStep()
    assert(h.indices == Seq(2))
    h.endStep()
    assert(h.indices == Seq(1))
    h.endStep() // x_1 = 1 is terminated after its step
    assert(h.indices.isEmpty)
  }

  test("a new edge with an existing index reuses the instance") {
    val h = new HistApprox(2, 0.1, 10, 10)
    h.observe(Seq(TimedEdge(0, 1, 3)))
    h.observe(Seq(TimedEdge(2, 3, 3)))
    assert(h.indices == Seq(3))
    assert(h.currentValue == 4, "the reused instance is fed the new edge")
  }

  test("an instance created below an existing one back-fills from G_t (Fig 6c)") {
    val h = new HistApprox(2, 0.1, 10, universe = 10)
    h.observe(Seq(TimedEdge(0, 1, 5)))
    // New lifetime 2 < 5: copy of A_5 plus alive edges with lifetime in [2,5).
    h.observe(Seq(TimedEdge(2, 3, 2)))
    assert(h.indices == Seq(2, 5))
    // The head instance must know both edges; value of {0,2} pair = 4.
    assert(h.currentValue == 4)
  }

  test("a rejected batch leaves the tracker unchanged") {
    val h = new HistApprox(2, 0.2, 10, 10)
    h.observe(Seq(TimedEdge(0, 1, 4), TimedEdge(1, 2, 9)))
    val (indices, sol, calls) = (h.indices, h.querySolution, h.oracleCalls)
    intercept[IllegalArgumentException](h.observe(Seq(TimedEdge(2, 3, 3), TimedEdge(4, 99, 8))))
    intercept[IllegalArgumentException](h.observe(Seq(TimedEdge(2, 3, 3), TimedEdge(-1, 3, 8))))
    assert(h.currentTdn.aliveCount == 2)
    assert(h.indices == indices)
    assert(h.querySolution == sol)
    assert(h.oracleCalls == calls)
  }

  test("the head instance sees all edges that are still alive and relevant") {
    val h = new HistApprox(1, 0.1, 10, universe = 10)
    h.observe(Seq(TimedEdge(0, 1, 4), TimedEdge(0, 2, 4), TimedEdge(0, 3, 4)))
    assert(h.currentValue == 4)
    h.endStep()
    h.observe(Seq(TimedEdge(5, 6, 1)))
    // x_1 instance includes the lifetime-1 edge and the still-alive star.
    assert(h.currentValue == 4)
  }

  test("invariant: no alive edge has remaining lifetime above the largest index") {
    val stream = TestData.randomTimedStream(15, steps = 30, perStep = 3, maxL = 6, seed = 8L)
    val h      = new HistApprox(2, 0.2, 6, 15)
    stream.foreach { batch =>
      h.observe(batch)
      if (h.indices.nonEmpty)
        assert(h.currentTdn.maxRemainingLifetime <= h.indices.max)
      h.endStep()
    }
  }

  test("indices stay sorted, unique, within [1, L]") {
    val stream = TestData.randomTimedStream(15, steps = 40, perStep = 3, maxL = 8, seed = 9L)
    val h      = new HistApprox(2, 0.2, 8, 15)
    stream.foreach { batch =>
      h.observe(batch)
      val xs = h.indices
      assert(xs == xs.sorted)
      assert(xs.distinct == xs)
      assert(xs.forall(x => x >= 1 && x <= 8))
      h.endStep()
    }
  }

  test("ReduceRedundancy kills a middle instance when outer values are eps-close") {
    // eps = 0.5, k = 1. Build indices {4, 9}, then insert 6 in the middle
    // whose value sits between: g(4)=3, g(6)=2, g(9)=2 and 2 >= 0.5*3,
    // so index 6 is redundant and must be killed (Definition 4).
    val h = new HistApprox(1, 0.5, 20, universe = 10)
    h.observe(Seq(TimedEdge(0, 2, 5), TimedEdge(0, 1, 10)))
    assert(h.indices == Seq(5, 10))
    h.endStep()
    h.observe(Seq(TimedEdge(3, 4, 6)))
    assert(h.indices == Seq(4, 9), "middle index 6 should be pruned")
  }

  test("ReduceRedundancy keeps the middle instance when values are far apart") {
    // Same construction with eps = 0.01: 2 < 0.99*3, nothing is redundant.
    val h = new HistApprox(1, 0.01, 20, universe = 10)
    h.observe(Seq(TimedEdge(0, 2, 5), TimedEdge(0, 1, 10)))
    h.endStep()
    h.observe(Seq(TimedEdge(3, 4, 6)))
    assert(h.indices == Seq(4, 6, 9))
    assert(h.outputs.toSeq == Seq(3, 2, 2))
  }

  test("ReduceRedundancy resumes at the survivor j, not at i + 1") {
    // Outputs 8, 4, 4, 2 with eps = 0.5: from the 1st, the largest j with
    // g(j) >= 4 is the 3rd, so the 2nd dies and the walk resumes at the 3rd,
    // whose neighbour is the 4th. Resuming at the dead 2nd would kill the 3rd.
    assert(HistApprox.redundant(Array(8, 4, 4, 2), 0.5).toSeq == Seq(1))
    assert(HistApprox.redundant(Array(8, 5, 4, 3, 2, 1), 0.5).toSeq == Seq(1, 3))
    // The same outputs in a tracker, k = 1: indices 2, 4, 6 hold stars of 8,
    // 4 and 2 nodes; index 3 is then created as a copy of index 4's sieves.
    val h = new HistApprox(1, 0.5, 20, universe = 20)
    val stars = (1 to 7).map(TimedEdge(0, _, 2)) ++ (9 to 11).map(TimedEdge(8, _, 4))
    h.observe(stars :+ TimedEdge(12, 13, 6))
    assert(h.indices == Seq(2, 4, 6))
    assert(h.outputs.toSeq == Seq(8, 4, 2))
    h.observe(Seq(TimedEdge(14, 15, 3)))
    assert(h.indices == Seq(2, 4, 6))
  }

  test("a creation the skip rule drops is one ReduceRedundancy kills, whatever its output") {
    // Outputs g of the live instances, every position p a new instance can
    // be inserted at and every output 0..max+1 it can have: where the rule
    // skips it, ReduceRedundancy over g with it inserted kills position p.
    val rng   = new scala.util.Random(17L)
    var fired = 0
    for (_ <- 0 until 3000) {
      val g   = Array.fill(rng.nextInt(8))(rng.nextInt(12))
      val eps = Seq(0.1, 0.2, 0.3, 0.5)(rng.nextInt(4))
      // Never at x_1's position: that instance is the tracker's output.
      assert(!HistApprox.doomed(g, 0, eps))
      for (p <- 0 to g.length; v <- 0 to g.maxOption.getOrElse(0) + 1) {
        if (HistApprox.doomed(g, p, eps)) {
          fired += 1
          val withNew = (g.take(p) :+ v) ++ g.drop(p)
          assert(HistApprox.redundant(withNew, eps).contains(p), s"g=${g.toSeq} p=$p v=$v eps=$eps")
        }
      }
    }
    assert(fired > 1000)
  }

  test("number of active instances stays far below L on long-lifetime streams") {
    val l      = 200
    val stream = TestData.randomTimedStream(20, steps = 60, perStep = 3, maxL = l, seed = 12L)
    val h      = new HistApprox(4, 0.2, l, 20)
    var maxActive = 0
    stream.foreach { batch =>
      h.observe(batch)
      maxActive = math.max(maxActive, h.indices.size)
      h.endStep()
    }
    assert(maxActive < l / 2, s"active=$maxActive should be << L=$l")
  }

  test("achieves (1/3 - eps) of OPT on the alive graph at every step (Theorem 7)") {
    val eps = 0.2
    for (seed <- 0 until 6) {
      val stream = TestData.randomTimedStream(12, steps = 20, perStep = 2, maxL = 6, seed = 40L + seed)
      val h      = new HistApprox(2, eps, 6, 12)
      val truth  = new Tdn
      stream.foreach { batch =>
        truth.add(batch)
        h.observe(batch)
        val gt       = truth.toDigraph(12)
        val (_, opt) = BruteForce.select(gt, 2)
        val sol      = h.querySolution
        val value    = if (sol.isEmpty) 0 else gt.spreadOf(sol)
        assert(value >= (1.0 / 3 - eps) * opt - 1e-9, s"seed=$seed t=${truth.now} v=$value opt=$opt")
        h.endStep()
        truth.advance()
      }
    }
  }

  test("tracks BasicReduction closely on random TDN streams") {
    val eps   = 0.1
    var ratioSum = 0.0
    var points   = 0
    for (seed <- 0 until 4) {
      val stream = TestData.randomTimedStream(15, steps = 25, perStep = 3, maxL = 8, seed = 60L + seed)
      val h      = new HistApprox(3, eps, 8, 15)
      val b      = new BasicReduction(3, eps, 8, 15)
      val truth  = new Tdn
      stream.foreach { batch =>
        truth.add(batch)
        h.observe(batch); b.observe(batch)
        val gt = truth.toDigraph(15)
        val hv = if (h.querySolution.isEmpty) 0 else gt.spreadOf(h.querySolution)
        val bv = if (b.querySolution.isEmpty) 0 else gt.spreadOf(b.querySolution)
        if (bv > 0) { ratioSum += hv.toDouble / bv; points += 1 }
        h.endStep(); b.endStep()
        truth.advance()
      }
    }
    val avg = ratioSum / points
    assert(avg >= 0.85, s"avg HistApprox/BasicReduction value ratio $avg")
  }

  test("uses fewer oracle calls than BasicReduction on long-lifetime streams") {
    val l      = 60
    val stream = TestData.randomTimedStream(15, steps = 30, perStep = 2, maxL = l, seed = 77L)
    val h      = new HistApprox(2, 0.2, l, 15)
    val b      = new BasicReduction(2, 0.2, l, 15)
    stream.foreach { batch => h.observe(batch); h.endStep(); b.observe(batch); b.endStep() }
    assert(h.oracleCalls < b.oracleCalls, s"hist=${h.oracleCalls} basic=${b.oracleCalls}")
  }

  test("querySolution returns at most k distinct nodes") {
    val stream = TestData.randomTimedStream(20, steps = 20, perStep = 4, maxL = 10, seed = 91L)
    val h      = new HistApprox(3, 0.2, 10, 20)
    stream.foreach { batch =>
      h.observe(batch)
      val s = h.querySolution
      assert(s.size <= 3 && s.distinct.size == s.size)
      h.endStep()
    }
  }
}
