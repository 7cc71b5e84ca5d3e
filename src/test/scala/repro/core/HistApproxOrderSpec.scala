package repro.core

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.tdn.TimedEdge

/** Ordering and edge-case behavior of HistApprox's batch processing. */
class HistApproxOrderSpec extends AnyFunSuite {

  test("within-batch input order does not matter (groups are processed by lifetime)") {
    // Seeded multi-step streams whose batches mix lifetimes (some above L),
    // repeat a pair with another lifetime and hold self-loops. One tracker
    // takes each batch as drawn, the other shuffled.
    var mixed = 0
    for (seed <- 1L to 30L) {
      val rng      = new Random(seed)
      val universe = 6 + rng.nextInt(20)
      val maxL     = 3 + rng.nextInt(10)
      val k        = 1 + rng.nextInt(3)
      val eps      = Seq(0.1, 0.2, 0.3)(rng.nextInt(3))
      val a        = new HistApprox(k, eps, maxL, universe)
      val b        = new HistApprox(k, eps, maxL, universe)
      for (step <- 0 until 30) {
        val ctx   = s"seed=$seed step=$step"
        val drawn = Seq.fill(1 + rng.nextInt(8)) {
          TimedEdge(rng.nextInt(universe), rng.nextInt(universe), 1 + rng.nextInt(maxL + 3))
        }
        val repeats = drawn.take(rng.nextInt(3)).map(e => e.copy(lifetime = e.lifetime % (maxL + 3) + 1))
        val loops   = Seq.fill(rng.nextInt(2)) { val u = rng.nextInt(universe); TimedEdge(u, u, 1 + rng.nextInt(maxL)) }
        val batch   = drawn ++ repeats ++ loops
        if (batch.map(_.lifetime.min(maxL)).distinct.size > 1) mixed += 1
        a.observe(batch)
        b.observe(rng.shuffle(batch))
        assert(a.indices == b.indices, ctx)
        assert(a.currentValue == b.currentValue, ctx)
        assert(a.querySolution == b.querySolution, ctx)
        assert(a.oracleCalls == b.oracleCalls, ctx)
        a.endStep()
        b.endStep()
      }
    }
    assert(mixed > 500, s"only $mixed batches held more than one lifetime group")
  }

  test("endStep without observe is a no-op on an empty tracker") {
    val h = new HistApprox(2, 0.2, 10, 10)
    (0 until 5).foreach(_ => h.endStep())
    assert(h.indices.isEmpty)
    assert(h.oracleCalls == 0)
  }

  test("interleaved empty steps decay correctly") {
    val h = new HistApprox(1, 0.2, 10, 10)
    h.observe(Seq(TimedEdge(0, 1, 2)))
    h.endStep()
    h.observe(Nil)
    assert(h.currentValue == 2) // still alive at t=1
    h.endStep()
    h.observe(Nil)
    assert(h.currentValue == 0) // expired at t=2
  }

  test("an edge re-arriving with a shorter lifetime does not shorten the alive copy") {
    val h = new HistApprox(1, 0.2, 10, 10)
    h.observe(Seq(TimedEdge(0, 1, 5)))
    h.endStep()
    h.observe(Seq(TimedEdge(0, 1, 1))) // same pair, short lifetime
    h.endStep()
    // Original copy (lifetime 5) still alive at t=2..4.
    h.observe(Nil)
    assert(h.currentValue == 2)
  }

  test("long random streams keep the tracker internally consistent") {
    val stream = TestData.randomTimedStream(20, steps = 120, perStep = 2, maxL = 30, seed = 17L)
    val h      = new HistApprox(3, 0.25, 30, 20)
    stream.foreach { batch =>
      h.observe(batch)
      val xs = h.indices
      assert(xs == xs.sorted && xs.distinct == xs)
      assert(h.querySolution.size <= 3)
      assert(h.currentValue >= 0)
      h.endStep()
    }
  }

  test("oracle calls are monotonically non-decreasing") {
    val stream = TestData.randomTimedStream(15, steps = 30, perStep = 2, maxL = 10, seed = 19L)
    val h      = new HistApprox(2, 0.2, 10, 15)
    var prev   = 0L
    stream.foreach { batch =>
      h.observe(batch)
      assert(h.oracleCalls >= prev)
      prev = h.oracleCalls
      h.endStep()
    }
  }
}
