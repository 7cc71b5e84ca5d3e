package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.tdn.{Tdn, TimedEdge}

class BasicReductionSpec extends AnyFunSuite {

  private def drive(
      algo: BasicReduction,
      stream: IndexedSeq[Seq[TimedEdge]],
  ): IndexedSeq[(Int, Seq[Int])] =
    stream.zipWithIndex.map { case (batch, t) =>
      algo.observe(batch)
      val out = (algo.currentValue, algo.querySolution)
      algo.endStep()
      out
    }

  /** The edges instance `a` has processed: those of the shared graph with
    * expiry at or above its cutoff.
    */
  private def visible(a: SieveAdn): Set[(Int, Int)] =
    (for { u <- 0 until a.universe; v <- 0 until a.universe if a.graph.expiryOf(u, v) >= a.cutoff } yield (u, v)).toSet

  test("constructor validates k, eps and L") {
    intercept[IllegalArgumentException](new BasicReduction(2, 0.1, 0, 10))
    intercept[IllegalArgumentException](new BasicReduction(0, 0.1, 5, 10))
    intercept[IllegalArgumentException](new BasicReduction(2, 0.0, 5, 10))
    intercept[IllegalArgumentException](new BasicReduction(2, 1.0, 5, 10))
  }

  test("instance(i) rejects i outside 1..L") {
    val algo = new BasicReduction(2, 0.1, maxLifetime = 4, universe = 10)
    algo.observe(Seq(TimedEdge(0, 1, 2)))
    assert((1 to 4).map(algo.instance(_).cutoff) == Seq(2, 2, 4, 4))
    intercept[IllegalArgumentException](algo.instance(0))
    intercept[IllegalArgumentException](algo.instance(5))
  }

  test("invariant: A_1 has processed exactly the alive edges of G_t") {
    val stream = TestData.randomTimedStream(15, steps = 25, perStep = 3, maxL = 5, seed = 2L)
    val algo   = new BasicReduction(2, 0.1, maxLifetime = 5, universe = 15)
    val truth  = new Tdn
    stream.foreach { batch =>
      truth.add(batch)
      algo.observe(batch)
      val alive = truth.aliveEdges.collect { case e if e.u != e.v => (e.u, e.v) }.toSet
      assert(alive == visible(algo.instance(1)), s"t=${truth.now}")
      algo.endStep()
      truth.advance()
    }
  }

  test("invariant: A_i only sees edges with lifetime >= i") {
    val algo = new BasicReduction(2, 0.1, maxLifetime = 4, universe = 10)
    algo.observe(Seq(TimedEdge(0, 1, 1), TimedEdge(2, 3, 3), TimedEdge(4, 5, 4)))
    assert((1 to 4).map(i => visible(algo.instance(i)).size) == Seq(3, 2, 2, 1))
    assert(visible(algo.instance(4)) == Set((4, 5)))
    assert(!visible(algo.instance(2)).contains((0, 1)))
    assert(algo.instance(4).currentValue == 2 && algo.instance(2).currentValue == 4)
  }

  test("an edge whose expiry rises from b to a reaches exactly the instances with cutoff in (b, a]") {
    val one = new OracleCounter // what feeding one empty instance the edge costs
    new SieveAdn(2, 0.1, 10, one).process(Seq((0, 1)))
    val algo = new BasicReduction(2, 0.1, maxLifetime = 8, universe = 10)
    algo.observe(Seq(TimedEdge(0, 1, 3))) // t = 0: expiry b = 3
    algo.endStep()                        // t = 1: A_i has cutoff 1 + i
    assert((1 to 8).map(algo.instance(_).delta) == Seq(2, 2, 0, 0, 0, 0, 0, 0))
    val calls = algo.oracleCalls
    algo.observe(Seq(TimedEdge(0, 1, 6))) // expiry a = 7: cutoffs 4..7 are A_3..A_6
    assert((1 to 8).map(algo.instance(_).delta) == Seq(2, 2, 2, 2, 2, 2, 0, 0))
    assert(algo.oracleCalls - calls == 4 * one.calls)
  }

  test("a repeated pair whose expiry does not rise splits no run and costs no call") {
    val algo = new BasicReduction(2, 0.1, maxLifetime = 8, universe = 10)
    algo.observe(Seq(TimedEdge(0, 1, 5), TimedEdge(2, 3, 2)))
    algo.endStep() // t = 1: (0, 1) has expiry 5
    val (runs, calls) = (algo.runCount, algo.oracleCalls)
    algo.observe(Seq(TimedEdge(0, 1, 2), TimedEdge(0, 1, 4))) // expiries 3 and 5
    assert(algo.runCount == runs)
    assert(algo.oracleCalls == calls)
  }

  test("shifting: instance A_{i} at t becomes A_{i-1} at t+1, new tail is empty") {
    val algo = new BasicReduction(2, 0.1, maxLifetime = 3, universe = 10)
    algo.observe(Seq(TimedEdge(0, 1, 3)))
    val a3 = algo.instance(3)
    algo.endStep()
    assert(algo.instance(2) eq a3)
    assert(visible(algo.instance(3)).isEmpty)
    assert(visible(algo.instance(2)) == Set((0, 1)))
  }

  test("lifetimes above L are effectively capped at L") {
    val algo = new BasicReduction(2, 0.1, maxLifetime = 3, universe = 10)
    algo.observe(Seq(TimedEdge(0, 1, 9)))
    assert(visible(algo.instance(3)) == Set((0, 1)))
  }

  test("solution on a sliding-window stream matches a fresh SieveADN over the window") {
    // All lifetimes = W: at any t, A_1 has seen the last W batches.
    val w      = 3
    val stream = TestData.randomTimedStream(12, steps = 12, perStep = 2, maxL = 1, seed = 4L)
      .map(_.map(_.copy(lifetime = w)))
    val algo = new BasicReduction(2, 0.15, maxLifetime = w, universe = 12)
    stream.zipWithIndex.foreach { case (batch, t) =>
      algo.observe(batch)
      // Reference: fresh SieveADN fed the alive window batch-by-batch.
      val ref = new SieveAdn(2, 0.15, 12, new OracleCounter)
      stream.slice(math.max(0, t - w + 1), t + 1).foreach(b => ref.process(b.map(e => (e.u, e.v))))
      assert(algo.currentValue == ref.currentValue, s"t=$t")
      algo.endStep()
    }
  }

  test("achieves (1/2 - eps) of OPT on the alive graph at every step (Theorem 4)") {
    val eps = 0.1
    for (seed <- 0 until 6) {
      val stream = TestData.randomTimedStream(12, steps = 15, perStep = 2, maxL = 4, seed = seed.toLong)
      val algo   = new BasicReduction(2, eps, maxLifetime = 4, universe = 12)
      val truth  = new Tdn
      stream.foreach { batch =>
        truth.add(batch)
        algo.observe(batch)
        val gt       = truth.toDigraph(12)
        val (_, opt) = BruteForce.select(gt, 2)
        val value    = if (algo.querySolution.isEmpty) 0 else gt.spreadOf(algo.querySolution)
        assert(value >= (0.5 - eps) * opt - 1e-9, s"seed=$seed t=${truth.now} value=$value opt=$opt")
        algo.endStep()
        truth.advance()
      }
    }
  }

  test("oracle calls accumulate across instances") {
    val algo = new BasicReduction(2, 0.1, maxLifetime = 5, universe = 10)
    assert(algo.oracleCalls == 0)
    algo.observe(Seq(TimedEdge(0, 1, 5)))
    assert(algo.oracleCalls > 0)
  }

  test("empty batches are free") {
    val algo = new BasicReduction(2, 0.1, maxLifetime = 5, universe = 10)
    algo.observe(Nil)
    assert(algo.oracleCalls == 0)
    algo.endStep()
    assert(algo.querySolution.isEmpty)
  }

  test("a rejected batch leaves the tracker unchanged") {
    val algo = new BasicReduction(2, 0.2, maxLifetime = 10, universe = 10)
    algo.observe(Seq(TimedEdge(0, 1, 4)))
    val calls = algo.oracleCalls
    intercept[IllegalArgumentException](algo.observe(Seq(TimedEdge(2, 3, 3), TimedEdge(4, 99, 8))))
    intercept[IllegalArgumentException](algo.observe(Seq(TimedEdge(2, 3, 3), TimedEdge(-1, 3, 8))))
    assert(algo.oracleCalls == calls)
    assert(algo.querySolution == Seq(0))
    assert((1 to 10).map(i => visible(algo.instance(i)).size) == Seq(1, 1, 1, 1, 0, 0, 0, 0, 0, 0))
  }

  test("expired edges stop contributing to the solution") {
    val algo = new BasicReduction(1, 0.1, maxLifetime = 5, universe = 10)
    algo.observe(Seq(TimedEdge(0, 1, 1), TimedEdge(0, 2, 1), TimedEdge(0, 3, 1)))
    assert(algo.currentValue == 4)
    algo.endStep()
    algo.observe(Seq(TimedEdge(5, 6, 2)))
    assert(algo.currentValue == 2, "star around 0 expired; only 5->6 alive")
    algo.endStep()
  }
}
