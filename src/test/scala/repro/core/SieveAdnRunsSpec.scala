package repro.core

import scala.collection.mutable
import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite

/** Differential test of [[SieveAdn]]'s runs against [[PerSieveAdn]], the
  * per-sieve design they replaced: both are driven through the same random
  * batches, and after every update they must agree on Δ, |Θ|, the value,
  * the solution, the oracle-call count and the members at every exponent.
  */
class SieveAdnRunsSpec extends AnyFunSuite {

  /** Universe 8–67, k 1–5 and ε ∈ {0.1, 0.2, 0.3}. */
  private def draw(rnd: Random): (Int, Int, Double) =
    (8 + rnd.nextInt(60), 1 + rnd.nextInt(5), Seq(0.1, 0.2, 0.3)(rnd.nextInt(3)))

  private def batch(rnd: Random, universe: Int): Seq[(Int, Int)] =
    Seq.fill(1 + rnd.nextInt(6))((rnd.nextInt(universe), rnd.nextInt(universe)))

  private def same(s: SieveAdn, r: PerSieveAdn, calls: (Long, Long), at: String): Unit = {
    assert(s.delta == r.delta, s"$at: Δ")
    assert(s.thresholdCount == r.thresholdCount, s"$at: |Θ|")
    assert(s.currentValue == r.currentValue, s"$at: value")
    assert(s.solution == r.solution, s"$at: solution")
    assert(calls._1 == calls._2, s"$at: oracle calls")
    assert(s.seedsByExponent == r.seedsByExponent, s"$at: members by exponent")
    assert(s.runCount <= s.thresholdCount, s"$at: ${s.runCount} runs")
  }

  test("stand-alone instances agree with the per-sieve reference after every batch") {
    var split = 0
    for (seed <- 1 to 80) {
      val rnd                = new Random(seed)
      val (universe, k, eps) = draw(rnd)
      val (sc, rc)           = (new OracleCounter, new OracleCounter)
      val s                  = new SieveAdn(k, eps, universe, sc)
      val r                  = new PerSieveAdn(k, eps, rc, new Digraph(universe), Int.MinValue)
      for (step <- 0 until 40) {
        val b = batch(rnd, universe)
        s.process(b)
        r.process(b)
        same(s, r, (sc.calls, rc.calls), s"seed $seed (|V| $universe, k $k, ε $eps) step $step")
        if (s.runCount > 1) split += 1
      }
    }
    assert(split > 0, "no instance ever held more than one run")
  }

  test("copies at a lower cutoff, back-filled, agree with copies of the reference") {
    for (seed <- 1 to 80) {
      val rnd                = new Random(1000 + seed)
      val (universe, k, eps) = draw(rnd)
      val g                  = new Digraph(universe)
      val (sc, rc)           = (new OracleCounter, new OracleCounter)
      // Each pair shares one graph; a copy at cutoff 5 also sees expiry 7.
      val pairs  = mutable.ArrayBuffer((new SieveAdn(k, eps, sc, g, 10), new PerSieveAdn(k, eps, rc, g, 10)))
      val expiry = mutable.Map.empty[(Int, Int), Int]
      val copyAt = 5 + rnd.nextInt(25)

      /** Feed both members of a pair the given edges, then compare them. */
      def feed(pair: (SieveAdn, PerSieveAdn), edges: Seq[(Int, Int)], at: String): Unit = {
        pair._1.update(edges.map(_._1).toArray, edges.map(_._2).toArray)
        pair._2.update(edges.map(_._1).toArray, edges.map(_._2).toArray)
        same(pair._1, pair._2, (sc.calls, rc.calls), s"seed $seed (|V| $universe, k $k, ε $eps) $at")
      }

      for (step <- 0 until 40) {
        if (step == copyAt) {
          val (s, r) = pairs.head
          val copy   = (s.copyInstance(5), r.copyInstance(5))
          same(copy._1, copy._2, (sc.calls, rc.calls), s"seed $seed copy")
          // Back-fill: the edges the copy sees and its source does not.
          val backFill = expiry.collect { case (e, x) if x >= 5 && x < 10 => e }.toSeq.sorted
          if (backFill.nonEmpty) feed(copy, backFill, s"back-fill at step $step")
          pairs += copy
        }
        val x        = if (rnd.nextBoolean()) 7 else 10
        val arrivals = batch(rnd, universe).filter(e => e._1 != e._2).distinct.map { case (u, v) =>
          val before = g.expiryOf(u, v)
          g.addEdge(u, v, x)
          expiry((u, v)) = g.expiryOf(u, v)
          (u, v, before, g.expiryOf(u, v))
        }
        pairs.foreach { pair =>
          val c    = pair._1.cutoff
          val seen = arrivals.collect { case (u, v, before, after) if before < c && c <= after => (u, v) }
          if (seen.nonEmpty) feed(pair, seen, s"cutoff $c step $step")
        }
      }
      assert(pairs.length == 2)
    }
  }
}
