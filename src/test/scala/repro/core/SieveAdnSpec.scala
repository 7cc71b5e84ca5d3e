package repro.core

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import TdnFeed.Forever

class SieveAdnSpec extends AnyFunSuite {

  test("empty instance has value 0 and empty solution") {
    val s = new TdnFeed(20).sieve(2, 0.1)
    assert(s.currentValue == 0)
    assert(s.solution.isEmpty)
    assert(s.delta == 0)
  }

  test("constructor validates k and eps") {
    val f = new TdnFeed(10)
    intercept[IllegalArgumentException](f.sieve(0, 0.1))
    intercept[IllegalArgumentException](f.sieve(2, 0.0))
    intercept[IllegalArgumentException](f.sieve(2, 1.0))
  }

  test("a single edge yields the source as a solution of value 2") {
    val f = new TdnFeed(20)
    val s = f.sieve(2, 0.1)
    f.add(Seq((0, 1)), Forever, s)
    assert(s.currentValue == 2)
    assert(s.solution.nonEmpty)
    assert(s.delta == 2)
  }

  test("duplicate and self-loop edges are no-ops") {
    val f = new TdnFeed(20)
    val s = f.sieve(2, 0.1)
    f.add(Seq((0, 1)), Forever, s)
    val calls = s.counter.calls
    f.add(Seq((0, 1), (3, 3)), Forever, s)
    assert(s.counter.calls == calls, "no oracle calls for no-op batch")
    assert(s.currentValue == 2)
  }

  test("value never decreases as edges accumulate (ADN monotonicity)") {
    val f      = new TdnFeed(20)
    val s      = f.sieve(3, 0.1)
    val stream = TestData.randomEdges(20, 80, 11L)
    var prev   = 0
    stream.grouped(5).foreach { batch =>
      f.add(batch, Forever, s)
      val v = s.currentValue
      assert(v >= prev, s"value dropped from $prev to $v")
      prev = v
    }
  }

  test("solution size is bounded by k") {
    for (k <- 1 to 4) {
      val f = new TdnFeed(30)
      val s = f.sieve(k, 0.2)
      f.add(TestData.randomEdges(30, 120, 5L), Forever, s)
      assert(s.solution.size <= k)
      assert(s.solution.distinct.size == s.solution.size)
    }
  }

  test("delta tracks the max singleton spread") {
    val f = new TdnFeed(10)
    val s = f.sieve(2, 0.1)
    // star from 0: spread(0) = 4
    f.add(Seq((0, 1), (0, 2), (0, 3)), Forever, s)
    assert(s.delta == 4)
    // longer chain from 5: 5->6->7->8->9, spread(5) = 5
    f.add(Seq((5, 6), (6, 7), (7, 8), (8, 9)), Forever, s)
    assert(s.delta == 5)
  }

  test("threshold count is O(eps^-1 log k) (Theorem 3 space shape)") {
    val f = new TdnFeed(100)
    val s = f.sieve(10, 0.1)
    f.add(TestData.randomEdges(100, 300, 3L), Forever, s)
    val bound = (math.log(2.0 * 10 * 10) / math.log1p(0.1)).toInt + 2
    assert(s.thresholdCount > 0)
    assert(s.thresholdCount <= bound, s"|Θ|=${s.thresholdCount} bound=$bound")
  }

  test("solution value equals the spread of the returned seeds") {
    val f = new TdnFeed(25)
    val s = f.sieve(3, 0.1)
    f.add(TestData.randomEdges(25, 100, 17L), Forever, s)
    assert(s.graph.spreadOf(s.solution) == s.currentValue)
  }

  test("achieves (1/2 - eps) OPT on random ADN streams (Theorem 2)") {
    val eps = 0.1
    for (seed <- 0 until 15) {
      val edges = TestData.randomEdges(14, 40, seed.toLong)
      val f     = new TdnFeed(14)
      val s     = f.sieve(2, eps)
      edges.grouped(4).foreach(b => f.add(b, Forever, s))
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
      val f     = new TdnFeed(12)
      val s     = f.sieve(3, eps)
      edges.foreach(e => f.add(Seq(e), Forever, s))
      val (_, opt) = BruteForce.select(TestData.digraphOf(12, edges), 3)
      assert(s.currentValue >= (0.5 - eps) * opt - 1e-9, s"seed=$seed")
    }
  }

  test("duplicate node re-arrival is handled (same node in several batches)") {
    val f = new TdnFeed(10)
    val s = f.sieve(2, 0.1)
    f.add(Seq((0, 1)), Forever, s)
    f.add(Seq((0, 2)), Forever, s)
    f.add(Seq((0, 3)), Forever, s)
    assert(s.currentValue == 4) // 0 reaches {0,1,2,3}
  }

  test("copyInstance is independent of the original") {
    val f = new TdnFeed(10)
    val s = f.sieve(2, 0.1, cutoff = 10)
    f.add(Seq((0, 1), (2, 3)), 10, s)
    val c = s.copyInstance(5)
    // Expiry 7 is visible at cutoff 5 only.
    f.add(Seq((0, 4), (0, 5)), 7, s, c)
    assert(c.currentValue == 6)
    // 0 reaches {0,1}; 2 reaches {2,3}; best pair {0,2} has value 4.
    assert(s.currentValue == 4)
    assert(f.graph.spreadOf(Seq(0, 2), s.cutoff) == 4)
    assert(f.graph.expiryOf(0, 4) == 7 && !f.graph.reachOf(0, s.cutoff).contains(4))
  }

  test("copyInstance preserves value and solution") {
    val f = new TdnFeed(20)
    val s = f.sieve(3, 0.1, cutoff = 10)
    f.add(TestData.randomEdges(20, 60, 23L), 10, s)
    val c = s.copyInstance(5)
    assert(c.currentValue == s.currentValue)
    assert(c.solution == s.solution)
    assert(c.graph eq s.graph)
  }

  test("an instance cannot be copied at or above its cutoff") {
    val s = new TdnFeed(10).sieve(2, 0.1, cutoff = 10)
    intercept[IllegalArgumentException](s.copyInstance(10))
    intercept[IllegalArgumentException](s.copyInstance(11))
  }

  test("a batch with an edge outside the universe changes nothing") {
    val f = new TdnFeed(10)
    val s = f.sieve(2, 0.1)
    f.add(Seq((0, 1)), Forever, s)
    intercept[IllegalArgumentException](f.add(Seq((1, 2), (3, 10)), Forever, s))
    assert(f.tdn.aliveCount == 1 && f.graph.edgeCount == 1 && s.currentValue == 2)
  }

  test("sieves holding one S share a run") {
    val f = new TdnFeed(30)
    val s = f.sieve(2, 0.1)
    // 0 reaches 10 nodes: Δ = 10 opens exponents 25..38, and 0 fills them
    // all. 20 reaches 5, which meets ⌈θ⌉ up to exponent 31 only.
    f.add((1 to 9).map(v => (0, v)) ++ (21 to 24).map(v => (20, v)), Forever, s)
    assert(s.thresholdCount == 14 && s.runCount == 2)
    assert(s.seedsByExponent.map(_._2) == Seq.fill(7)(Seq(0, 20)) ++ Seq.fill(7)(Seq(0)))
    TestData.randomEdges(30, 90, 31L).grouped(3).foreach { b =>
      f.add(b, Forever, s)
      assert(s.runCount <= s.thresholdCount)
    }
  }

  test("update takes its edges as a set: their order and repeats change nothing") {
    for (seed <- 0L until 40L) {
      val rng      = new Random(seed)
      val n        = 2 + rng.nextInt(30)
      val k        = 1 + rng.nextInt(4)
      val g        = new Digraph(n)
      val cutoff   = 5
      val (ca, cb) = (new OracleCounter, new OracleCounter)
      val tidy     = new SieveAdn(ca, g, cutoff, new SieveAdn.SizeTable(k, 0.2))
      val messy    = new SieveAdn(cb, g, cutoff, new SieveAdn.SizeTable(k, 0.2))
      for (round <- 0 until 25) {
        val ctx   = s"seed=$seed round=$round"
        val batch = Seq.fill(1 + rng.nextInt(6)) {
          val u = rng.nextInt(n)
          (u, (u + 1 + rng.nextInt(n - 1)) % n, rng.nextInt(2 * cutoff))
        }
        // The pairs this batch makes visible at the cutoff: distinct and
        // sorted for one instance, shuffled with repeats for the other.
        val seen = batch.collect { case (u, v, _) if g.expiryOf(u, v) >= cutoff => (u, v) }.toSet
        batch.foreach { case (u, v, x) => g.addEdge(u, v, x) }
        val fresh    = batch.collect { case (u, v, _) if g.expiryOf(u, v) >= cutoff && !seen((u, v)) => (u, v) }
        val sorted   = fresh.distinct.sorted
        val shuffled = rng.shuffle(fresh ++ fresh.filter(_ => rng.nextBoolean()))
        tidy.update(sorted.map(_._1).toArray, sorted.map(_._2).toArray)
        messy.update(shuffled.map(_._1).toArray, shuffled.map(_._2).toArray)
        assert(messy.seedsByExponent == tidy.seedsByExponent, ctx)
        assert(messy.delta == tidy.delta && messy.currentValue == tidy.currentValue, ctx)
        assert(cb.calls == ca.calls, ctx)
      }
    }
  }

  test("the size table holds floorExp(2k·n) for every n it covers and grows only to the n asked") {
    for (k <- Seq(1, 3, 10, 50); eps <- Seq(0.05, 0.1, 0.2, 0.3)) {
      val t = new SieveAdn.SizeTable(k, eps)
      t.cover(7)
      t.cover(3)
      assert(t.length == 8)
      t.cover(20000)
      assert(t.length == 20001)
      val logBase = math.log1p(eps)
      val wrong   = (0 to 20000).find(n => t(n) != math.floor(math.log(2.0 * k * n) / logBase + 1e-9).toInt)
      assert(wrong.isEmpty, s"k=$k eps=$eps n=$wrong")
    }
  }

  test("the ladder's two directions agree: need(t(n)) <= n < need(t(n) + 1)") {
    // t(n) = floorExp(2k·n) is the highest exponent whose ⌈θ⌉ a candidate
    // reaching n nodes can meet; SieveADN's pruning (hv = sizes(|r|)) rests on it.
    for (k <- Seq(1, 3, 10, 50, 100); eps <- Seq(0.05, 0.1, 0.2, 0.3)) {
      val t = new SieveAdn.SizeTable(k, eps)
      t.cover(20000)
      val wrong = (1 to 20000).find(n => !(t.need(t(n)) <= n && n < t.need(t(n) + 1)))
      assert(wrong.isEmpty, s"k=$k eps=$eps n=$wrong")
    }
  }

  test("oracle calls grow with candidates, not with universe size") {
    val (big, small) = (new TdnFeed(10000), new TdnFeed(10))
    val (sBig, sSmall) = (big.sieve(2, 0.1), small.sieve(2, 0.1))
    big.add(Seq((0, 1)), Forever, sBig)
    small.add(Seq((0, 1)), Forever, sSmall)
    assert(sBig.counter.calls == sSmall.counter.calls)
  }
}
