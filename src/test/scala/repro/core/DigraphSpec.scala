package repro.core

import java.util.{BitSet => JBitSet}
import scala.collection.mutable
import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.TestData

class DigraphSpec extends AnyFunSuite {

  test("empty graph has no nodes or edges") {
    val g = new Digraph(10)
    assert(g.nodeCount == 0)
    assert(g.edgeCount == 0)
    assert(g.nodeArray.isEmpty)
  }

  test("addEdge inserts a directed edge and registers both endpoints") {
    val g = new Digraph(10)
    assert(g.addEdge(1, 2))
    assert(g.hasEdge(1, 2))
    assert(!g.hasEdge(2, 1))
    assert(g.hasNode(1) && g.hasNode(2))
    assert(g.nodeCount == 2)
  }

  test("self-loops are rejected") {
    val g = new Digraph(10)
    assert(!g.addEdge(3, 3))
    assert(g.edgeCount == 0)
    assert(!g.hasNode(3))
  }

  test("duplicate edges are deduplicated") {
    val g = new Digraph(10)
    assert(g.addEdge(1, 2))
    assert(!g.addEdge(1, 2))
    assert(g.edgeCount == 1)
    assert(g.outNeighbors(1) == Seq(2))
  }

  test("out of universe edge is rejected with an error") {
    val g = new Digraph(4)
    intercept[IllegalArgumentException](g.addEdge(1, 4))
    intercept[IllegalArgumentException](g.addEdge(-1, 2))
  }

  test("outNeighbors and inNeighbors reflect direction") {
    val g = new Digraph(10)
    g.addEdge(0, 1); g.addEdge(0, 2); g.addEdge(3, 0)
    assert(g.outNeighbors(0).toSet == Set(1, 2))
    assert(g.inNeighbors(0) == Seq(3))
    assert(g.outNeighbors(1).isEmpty)
  }

  test("nodeArray lists present nodes ascending") {
    val g = new Digraph(10)
    g.addEdge(7, 2); g.addEdge(5, 7)
    assert(g.nodeArray.toSeq == Seq(2, 5, 7))
  }

  test("reach on a chain includes all downstream nodes and the seed") {
    val g = TestData.digraphOf(6, Seq((0, 1), (1, 2), (2, 3)))
    val r = g.reach(Iterator.single(0))
    assert((0 to 3).forall(r.get))
    assert(!r.get(4) && !r.get(5))
  }

  test("reach handles cycles without looping") {
    val g = TestData.digraphOf(4, Seq((0, 1), (1, 2), (2, 0)))
    assert(g.spreadOf(Seq(0)) == 3)
  }

  test("reach from multiple seeds unions their reach sets") {
    val g = TestData.digraphOf(8, Seq((0, 1), (2, 3), (4, 5)))
    assert(g.spreadOf(Seq(0, 2)) == 4)
    assert(g.spreadOf(Seq(0, 2, 4)) == 6)
  }

  test("spread of an isolated (absent) node is 1 — the node itself") {
    val g = TestData.digraphOf(8, Seq((0, 1)))
    assert(g.spreadOf(Seq(7)) == 1)
  }

  test("reverseReach collects all ancestors") {
    val g = TestData.digraphOf(6, Seq((0, 2), (1, 2), (2, 3), (4, 5)))
    val r = g.reverseReach(3)
    assert(Seq(0, 1, 2, 3).forall(r.get))
    assert(!r.get(4) && !r.get(5))
  }

  test("reach agrees with a reference BFS on random graphs") {
    for (seed <- 0L until 40L) {
      val edges = TestData.randomEdges(30, 60, seed)
      val g     = TestData.digraphOf(30, edges)
      val seeds = Seq((seed % 30).toInt)
      val got   = g.reach(seeds)
      val want  = TestData.referenceReach(edges, seeds)
      assert((0 until 30).filter(got.get).toSet == want, s"seed=$seed")
    }
  }

  test("reverse reach of v equals {u : v in reach(u)}") {
    val edges = TestData.randomEdges(20, 40, 99L)
    val g     = TestData.digraphOf(20, edges)
    for (v <- 0 until 20) {
      val rev  = g.reverseReach(v)
      val want = (0 until 20).filter(u => g.reach(Iterator.single(u)).get(v)).toSet
      assert((0 until 20).filter(rev.get).toSet == want)
    }
  }

  test("BFS skips edges whose expiry is below the cutoff") {
    val g = new Digraph(6)
    g.addEdge(0, 1, expiry = 5)
    g.addEdge(1, 2, expiry = 3)
    g.addEdge(2, 3, expiry = 8)
    assert(g.spreadOf(Seq(0)) == 4)
    assert(g.reach(Seq(0), from = 3).cardinality() == 4)
    assert(g.reach(Seq(0), from = 4).cardinality() == 2)
    assert(g.reach(Seq(2), from = 6).cardinality() == 2)
    assert(g.reach(Seq(0), from = 6).cardinality() == 1)
    val r = g.reverseReach(3, from = 4)
    assert((0 until 6).filter(r.get) == Seq(2, 3))
  }

  test("adding an edge again raises its expiry to the larger value") {
    val g = new Digraph(4)
    assert(g.addEdge(0, 1, expiry = 5))
    assert(!g.addEdge(0, 1, expiry = 9))
    assert(g.expiryOf(0, 1) == 9)
    assert(!g.addEdge(0, 1, expiry = 2))
    assert(g.expiryOf(0, 1) == 9)
    assert(g.edgeCount == 1)
    assert(g.reverseReach(1, from = 9).get(0))
    assert(g.expiryOf(1, 0) == Int.MinValue)
  }

  test("an expiry drop keeps an edge a later copy still holds and updates nodes and counts") {
    val g = new Digraph(6)
    g.addEdge(0, 1, expiry = 2)
    g.addEdge(0, 1, expiry = 4) // a later copy of (0, 1)
    g.addEdge(1, 2, expiry = 2)
    g.addEdge(3, 4, expiry = 3)
    g.expire(0, 1, now = 2)
    g.expire(1, 2, now = 2)
    assert(g.hasEdge(0, 1) && !g.hasEdge(1, 2))
    assert(g.edgeCount == 2)
    assert(g.nodeArray.toSeq == Seq(0, 1, 3, 4) && g.nodeCount == 4)
    assert(g.inNeighbors(2).isEmpty && g.outNeighbors(1).isEmpty)
    g.expire(3, 4, now = 3)
    g.expire(0, 1, now = 4)
    assert(g.edgeCount == 0 && g.nodeCount == 0 && g.nodeArray.isEmpty)
    assert(g.spreadOf(Seq(0)) == 1)
  }

  test("reachOf on a fresh graph returns every reached node even when the search grows the scratch") {
    val g = TestData.digraphOf(201, (1 until 200).map(i => (i, i + 1)))
    assert(g.reachOf(1).toSeq == (1 to 200))
    assert(g.reachOf(1).toSeq == (1 to 200))
  }

  test("a seed outside the universe is rejected with an error naming it") {
    val g = TestData.digraphOf(4, Seq((0, 1)))
    val bad = Seq[(Int, Digraph => Any)](
      4  -> (_.spreadOf(Seq(0, 4))),
      -1 -> (_.reach(Seq(-1))),
      7  -> (_.reachOf(7)),
      5  -> (_.spreadOf(5, 0)),
      4  -> (_.reverseReach(4)),
      9  -> (_.reverseReachOf(Seq(0, 9), Int.MinValue)),
    )
    bad.foreach { case (seed, search) =>
      val e = intercept[IllegalArgumentException](search(g))
      assert(e.getMessage.contains(s"seed $seed outside universe 4"), e.getMessage)
    }
    assert(g.spreadOf(Seq(0)) == 2 && g.reachOf(1).toSeq == Seq(1))
  }

  test("searches reusing the scratch agree with a fresh naive BFS while edges come and go") {
    var mostReached = 0 // the scratch starts at 64 nodes: some searches must grow it
    for (seed <- 0L until 25L) {
      val rng   = new Random(seed)
      val n     = 2 + rng.nextInt(160)
      val g     = new Digraph(n)
      val model = mutable.Map.empty[(Int, Int), Int] // edge -> expiry
      def naive(seeds: Seq[Int], from: Int, reverse: Boolean): Set[Int] = {
        val live = model.toSeq.collect { case ((u, v), e) if e >= from => if (reverse) (v, u) else (u, v) }
        TestData.referenceReach(live, seeds)
      }
      def members(b: JBitSet): Set[Int] = b.stream().toArray.toSet
      for (op <- 0 until 600) {
        val u    = rng.nextInt(n)
        val from = rng.nextInt(16) - 4
        val ctx  = s"seed=$seed op=$op u=$u from=$from"
        rng.nextInt(10) match {
          case 0 | 1 | 2 =>
            val v = rng.nextInt(n)
            val e = rng.nextInt(12)
            g.addEdge(u, v, e)
            if (u != v) model((u, v)) = math.max(model.getOrElse((u, v), e), e)
          case 3 =>
            if (model.nonEmpty) {
              val (a, b) = model.keys.toIndexedSeq(rng.nextInt(model.size))
              val now    = rng.nextInt(12)
              g.expire(a, b, now)
              if (model((a, b)) <= now) model -= ((a, b))
            }
          case 4 =>
            val r = g.reachOf(u, from)
            assert(r.head == u && r.distinct.length == r.length, ctx)
            assert(r.toSet == naive(Seq(u), from, reverse = false), ctx)
            mostReached = math.max(mostReached, r.length)
          case 5 =>
            val seeds = Seq.fill(1 + rng.nextInt(3))(rng.nextInt(n))
            assert(g.spreadOf(seeds, from) == naive(seeds, from, reverse = false).size, ctx)
            assert(g.spreadOf(u, from) == naive(Seq(u), from, reverse = false).size, ctx)
          case 6 =>
            val seeds = Seq.fill(1 + rng.nextInt(3))(rng.nextInt(n))
            assert(members(g.reach(seeds, from)) == naive(seeds, from, reverse = false), ctx)
          case 7 =>
            assert(members(g.reverseReach(u, from)) == naive(Seq(u), from, reverse = true), ctx)
          case _ =>
            // One multi-target search equals the union of single searches.
            val targets = Seq.fill(1 + rng.nextInt(4))(rng.nextInt(n))
            val r       = g.reverseReachOf(targets, from)
            assert(r.distinct.length == r.length, ctx)
            assert(r.toSet == targets.map(t => naive(Seq(t), from, reverse = true)).reduce(_ | _), ctx)
            assert(r.toSet == targets.map(t => members(g.reverseReach(t, from))).reduce(_ | _), ctx)
            mostReached = math.max(mostReached, r.length)
        }
        assert(g.edgeCount == model.size, ctx)
      }
    }
    assert(mostReached > 64, s"the largest search reached only $mostReached nodes")
  }
}
