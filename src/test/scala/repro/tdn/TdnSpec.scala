package repro.tdn

import org.scalatest.funsuite.AnyFunSuite

class TdnSpec extends AnyFunSuite {

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
    assert(g.hasEdge(0, 1))
    assert(!g.hasEdge(2, 3))
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
    assert(g.hasEdge(2, 3) && !g.hasEdge(4, 4))
    tdn.advance() // (1, 2) expires; (0, 1) is still held by its later copy
    assert(tdn.toDigraph(5) eq g)
    assert(g.hasEdge(0, 1) && !g.hasEdge(1, 2))
    assert(g.nodes.toSeq == Seq(0, 1, 2, 3))
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
}
