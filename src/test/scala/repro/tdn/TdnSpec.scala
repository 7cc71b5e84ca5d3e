package repro.tdn

import scala.collection.mutable
import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite

class TdnSpec extends AnyFunSuite {

  /** edgesExpiringIn(lo, hi) as (tail, head) pairs. */
  private def expiringIn(tdn: Tdn, lo: Int, hi: Int): Seq[(Int, Int)] = {
    val (us, vs) = tdn.edgesExpiringIn(lo, hi)
    assert(us.length == vs.length)
    us.toSeq.zip(vs)
  }

  test("TimedEdge rejects non-positive lifetimes") {
    intercept[IllegalArgumentException](TimedEdge(0, 1, 0))
    intercept[IllegalArgumentException](TimedEdge(0, 1, -3))
  }

  test("an edge with lifetime l is alive for exactly l steps") {
    val tdn = new Tdn
    tdn.add(Seq(TimedEdge(0, 1, 3)))
    assert(tdn.aliveCount == 1) // t = 0 (arrival)
    tdn.advance()
    assert(tdn.aliveCount == 1) // t = 1
    tdn.advance()
    assert(tdn.aliveCount == 1) // t = 2
    tdn.advance()
    assert(tdn.aliveCount == 0) // t = 3: expired
  }

  test("remaining lifetime decreases by one per step") {
    val tdn = new Tdn
    tdn.add(Seq(TimedEdge(0, 1, 3)))
    assert(tdn.aliveEdges == Seq(TimedEdge(0, 1, 3)))
    tdn.advance()
    assert(tdn.aliveEdges == Seq(TimedEdge(0, 1, 2)))
    tdn.advance()
    assert(tdn.aliveEdges == Seq(TimedEdge(0, 1, 1)))
  }

  test("lifetime-1 edges live only in their arrival step (sliding window W=1)") {
    val tdn = new Tdn
    tdn.add(Seq(TimedEdge(0, 1, 1)))
    assert(tdn.aliveCount == 1)
    tdn.advance()
    assert(tdn.aliveCount == 0)
  }

  test("multi-edges are kept with multiplicity") {
    val tdn = new Tdn
    tdn.add(Seq(TimedEdge(0, 1, 5), TimedEdge(0, 1, 2)))
    assert(tdn.aliveCount == 2)
    assert(tdn.interactionCounts == Map((0, 1) -> 2))
    tdn.advance(); tdn.advance()
    assert(tdn.aliveCount == 1)
    assert(tdn.interactionCounts == Map((0, 1) -> 1))
  }

  test("maxRemainingLifetime tracks the longest-lived alive edge") {
    val tdn = new Tdn
    assert(tdn.maxRemainingLifetime == 0)
    tdn.add(Seq(TimedEdge(0, 1, 2), TimedEdge(1, 2, 7)))
    assert(tdn.maxRemainingLifetime == 7)
    (1 to 6).foreach(_ => tdn.advance())
    assert(tdn.maxRemainingLifetime == 1)
    tdn.advance()
    assert(tdn.maxRemainingLifetime == 0)
  }

  test("toDigraph deduplicates multi-edges and drops expired edges") {
    val tdn = new Tdn
    tdn.add(Seq(TimedEdge(0, 1, 1), TimedEdge(0, 1, 4), TimedEdge(2, 3, 1)))
    tdn.advance()
    val g = tdn.toDigraph(6)
    assert(g.edgeCount == 1)
    assert(g.expiryOf(0, 1) == 4)
    assert(g.expiryOf(2, 3) == Int.MinValue)
  }

  test("aliveNodes is the set of endpoints of alive edges") {
    val tdn = new Tdn
    tdn.add(Seq(TimedEdge(0, 1, 1), TimedEdge(2, 3, 2)))
    assert(tdn.aliveNodes == Set(0, 1, 2, 3))
    tdn.advance()
    assert(tdn.aliveNodes == Set(2, 3))
    tdn.advance()
    assert(tdn.aliveNodes == Set.empty[Int])
  }

  test("batches arriving at different times expire independently") {
    val tdn = new Tdn
    tdn.add(Seq(TimedEdge(0, 1, 2)))
    tdn.advance()
    tdn.add(Seq(TimedEdge(2, 3, 2)))
    tdn.advance() // t=2: first edge expired, second has lifetime 1
    assert(tdn.aliveEdges == Seq(TimedEdge(2, 3, 1)))
    tdn.advance()
    assert(tdn.aliveCount == 0)
  }

  test("compaction under sustained churn keeps only alive edges visible") {
    val tdn = new Tdn
    for (t <- 0 until 200) {
      tdn.add(Seq(TimedEdge(t % 10, (t + 1) % 10, 1 + t % 5)))
      tdn.advance()
    }
    // Lifetimes ≤ 5, so at most 5 edges can be alive.
    assert(tdn.aliveCount <= 5)
    assert(tdn.aliveEdges.forall(e => e.lifetime >= 1 && e.lifetime <= 5))
  }

  test("clock starts at zero and advances by one") {
    val tdn = new Tdn
    assert(tdn.now == 0)
    tdn.advance(); tdn.advance()
    assert(tdn.now == 2)
  }

  test("toDigraph returns the same live graph across add and advance") {
    val tdn = new Tdn
    tdn.add(Seq(TimedEdge(0, 1, 1), TimedEdge(0, 1, 3), TimedEdge(1, 2, 1)))
    val g = tdn.toDigraph(5)
    assert(g.edgeCount == 2 && g.expiryOf(0, 1) == 3)
    tdn.add(Seq(TimedEdge(2, 3, 2), TimedEdge(4, 4, 2)))
    assert(tdn.toDigraph(5) eq g)
    assert(g.expiryOf(2, 3) == 2 && g.expiryOf(4, 4) == Int.MinValue)
    tdn.advance() // (1, 2) expires; (0, 1) is still held by its later copy
    assert(tdn.toDigraph(5) eq g)
    assert(g.expiryOf(0, 1) == 3 && g.expiryOf(1, 2) == Int.MinValue)
    assert(g.nodeArray.toSeq == Seq(0, 1, 2, 3))
    tdn.advance(); tdn.advance()
    assert(g.edgeCount == 0 && g.nodeCount == 0)
  }

  test("toDigraph rejects a universe other than the live graph's") {
    val tdn = new Tdn
    tdn.toDigraph(5)
    intercept[IllegalArgumentException](tdn.toDigraph(6))
  }

  test("a rejected batch is not added at all") {
    val tdn = new Tdn
    tdn.add(Seq(TimedEdge(0, 1, 2)))
    intercept[IllegalArgumentException](tdn.add(Seq(TimedEdge(2, 3, 1), TimedEdge(-1, 3, 1))))
    assert(tdn.aliveCount == 1)
    val g = tdn.toDigraph(4)
    intercept[IllegalArgumentException](tdn.add(Seq(TimedEdge(2, 3, 1), TimedEdge(1, 4, 1))))
    assert(tdn.aliveCount == 1 && g.edgeCount == 1)
  }

  test("an edge whose expiry would overflow is rejected, naming it") {
    val tdn = new Tdn
    tdn.add(Seq(TimedEdge(0, 1, 2)))
    tdn.advance()
    val e = intercept[IllegalArgumentException](tdn.add(Seq(TimedEdge(2, 3, 1), TimedEdge(4, 5, Int.MaxValue))))
    assert(e.getMessage.contains("edge (4,5)") && e.getMessage.contains("now = 1"), e.getMessage)
    assert(tdn.aliveEdges == Seq(TimedEdge(0, 1, 1)))
    tdn.add(Seq(TimedEdge(4, 5, Int.MaxValue - 1))) // expires at Int.MaxValue exactly
    tdn.advance()
    assert(tdn.aliveEdges == Seq(TimedEdge(4, 5, Int.MaxValue - 2)))
  }

  test("edgesExpiringIn lists each alive edge at its expiry") {
    val tdn = new Tdn
    tdn.add(
      Seq(
        TimedEdge(0, 1, 2),
        TimedEdge(1, 2, 3),
        TimedEdge(2, 3, 5),
        TimedEdge(0, 1, 4), // a later copy raises (0, 1) to 4
        TimedEdge(3, 4, 1),
        TimedEdge(2, 3, 5), // a repeat at the same expiry
        TimedEdge(5, 5, 3), // a self-loop: not in the graph
      )
    )
    tdn.toDigraph(6)
    tdn.advance() // (3, 4) expires
    assert(expiringIn(tdn, 3, 5).toSet == Set((0, 1), (1, 2)))
    assert(expiringIn(tdn, 2, 3).isEmpty) // (0, 1) left expiry 2 for 4
    assert(expiringIn(tdn, 5, 6) == Seq((2, 3), (2, 3))) // the repeat is listed
    assert(expiringIn(tdn, Int.MinValue, Int.MaxValue).toSet == Set((0, 1), (1, 2), (2, 3)))
    intercept[IllegalArgumentException](new Tdn().edgesExpiringIn(0, 1))
  }

  test("the expiry index agrees with a naive multiset through adds and advances") {
    for (seed <- 0L until 40L) {
      val rng   = new Random(seed)
      val n     = 2 + rng.nextInt(10)
      val tdn   = new Tdn
      val model = mutable.ArrayBuffer.empty[(Int, Int, Int)] // (u, v, expiry)
      val built = rng.nextInt(20) // the graph is built from the entries at this step
      for (t <- 0 until 60) {
        val ctx = s"seed=$seed t=$t"
        if (t == built) tdn.toDigraph(n)
        val batch = if (rng.nextInt(4) == 0) Nil else Seq.fill(1 + rng.nextInt(5)) {
          val u = rng.nextInt(n)
          TimedEdge(u, if (rng.nextInt(8) == 0) u else rng.nextInt(n), 1 + rng.nextInt(12))
        }
        tdn.add(batch)
        batch.foreach(e => model += ((e.u, e.v, t + e.lifetime)))

        val remaining = model.map { case (u, v, x) => TimedEdge(u, v, x - t) }
        val ordered   = tdn.aliveEdges
        assert(tdn.aliveCount == model.size, ctx)
        assert(ordered.sortBy(e => (e.u, e.v, e.lifetime)) == remaining.sortBy(e => (e.u, e.v, e.lifetime)), ctx)
        assert(ordered.map(_.lifetime) == ordered.map(_.lifetime).sorted, ctx)
        assert(tdn.maxRemainingLifetime == remaining.map(_.lifetime).maxOption.getOrElse(0), ctx)
        assert(tdn.interactionCounts == model.groupBy(e => (e._1, e._2)).view.mapValues(_.size).toMap, ctx)
        assert(tdn.aliveNodes == model.flatMap(e => Seq(e._1, e._2)).toSet, ctx)

        if (t >= built) {
          val g      = tdn.toDigraph(n)
          val expiry = model.filter(e => e._1 != e._2).groupBy(e => (e._1, e._2)).view.mapValues(_.map(_._3).max).toMap
          assert(g.edgeCount == expiry.size, ctx)
          expiry.foreach { case ((u, v), x) => assert(g.expiryOf(u, v) == x, s"$ctx ($u,$v)") }
          for (_ <- 0 until 4) {
            val lo = t - 2 + rng.nextInt(16)
            val hi = lo + rng.nextInt(8)
            val want = expiry.toSeq.collect { case (p, x) if x >= lo && x < hi => p }.toSet
            assert(expiringIn(tdn, lo, hi).toSet == want, s"$ctx [$lo, $hi)")
          }
        }

        tdn.advance()
        model.filterInPlace(_._3 > t + 1)
      }
    }
  }
}
