package repro.core

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
    assert(g.addEdge(1, 2, 5))
    assert(g.expiryOf(1, 2) == 5)
    assert(g.expiryOf(2, 1) == Int.MinValue)
    assert(g.nodeArray.toSeq == Seq(1, 2))
    assert(g.nodeCount == 2)
  }

  test("self-loops are rejected") {
    val g = new Digraph(10)
    assert(!g.addEdge(3, 3, Int.MaxValue))
    assert(g.edgeCount == 0)
    assert(g.nodeArray.isEmpty)
  }

  test("duplicate edges are deduplicated") {
    val g = new Digraph(10)
    assert(g.addEdge(1, 2, Int.MaxValue))
    assert(!g.addEdge(1, 2, Int.MaxValue))
    assert(g.edgeCount == 1)
    assert(g.reachOf(1).toSeq == Seq(1, 2))
  }

  test("out of universe edge is rejected with an error") {
    val g = new Digraph(4)
    intercept[IllegalArgumentException](g.addEdge(1, 4, Int.MaxValue))
    intercept[IllegalArgumentException](g.addEdge(-1, 2, Int.MaxValue))
  }

  test("outNeighbors and inNeighbors reflect direction") {
    val g = new Digraph(10)
    g.addEdge(0, 1, Int.MaxValue); g.addEdge(0, 2, Int.MaxValue); g.addEdge(3, 0, Int.MaxValue)
    assert(g.reachOf(0).toSet == Set(0, 1, 2))
    assert(g.reverseReachOf(Array(0), Int.MinValue).toSet == Set(0, 3))
    assert(g.reachOf(1).toSeq == Seq(1))
  }

  test("nodeArray lists present nodes ascending") {
    val g = new Digraph(10)
    g.addEdge(7, 2, Int.MaxValue); g.addEdge(5, 7, Int.MaxValue)
    assert(g.nodeArray.toSeq == Seq(2, 5, 7))
  }

  test("reach on a chain includes all downstream nodes and the seed") {
    val g = TestData.digraphOf(6, Seq((0, 1), (1, 2), (2, 3)))
    assert(g.reachOf(0).toSet == Set(0, 1, 2, 3))
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
    assert(g.reverseReachOf(Array(3), Int.MinValue).toSet == Set(0, 1, 2, 3))
  }

  test("reach agrees with a reference BFS on random graphs") {
    for (seed <- 0L until 40L) {
      val edges = TestData.randomEdges(30, 60, seed)
      val g     = TestData.digraphOf(30, edges)
      val seeds = Seq((seed % 30).toInt)
      val got   = seeds.flatMap(g.reachOf(_)).toSet
      assert(got == TestData.referenceReach(edges, seeds), s"seed=$seed")
    }
  }

  test("reverse reach of v equals {u : v in reach(u)}") {
    val edges = TestData.randomEdges(20, 40, 99L)
    val g     = TestData.digraphOf(20, edges)
    for (v <- 0 until 20) {
      val rev  = g.reverseReachOf(Array(v), Int.MinValue).toSet
      val want = (0 until 20).filter(u => g.reachOf(u).contains(v)).toSet
      assert(rev == want)
    }
  }

  test("BFS skips edges whose expiry is below the cutoff") {
    val g = new Digraph(6)
    g.addEdge(0, 1, expiry = 5)
    g.addEdge(1, 2, expiry = 3)
    g.addEdge(2, 3, expiry = 8)
    assert(g.spreadOf(Seq(0)) == 4)
    assert(g.reachOf(0, from = 3).length == 4)
    assert(g.reachOf(0, from = 4).length == 2)
    assert(g.reachOf(2, from = 6).length == 2)
    assert(g.reachOf(0, from = 6).length == 1)
    assert(g.reverseReachOf(Array(3), from = 4).sorted.toSeq == Seq(2, 3))
  }

  test("adding an edge again raises its expiry to the larger value") {
    val g = new Digraph(4)
    assert(g.addEdge(0, 1, expiry = 5))
    assert(!g.addEdge(0, 1, expiry = 9))
    assert(g.expiryOf(0, 1) == 9)
    assert(!g.addEdge(0, 1, expiry = 2))
    assert(g.expiryOf(0, 1) == 9)
    assert(g.edgeCount == 1)
    assert(g.reverseReachOf(Array(1), from = 9).contains(0))
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
    assert(g.expiryOf(0, 1) == 4 && g.expiryOf(1, 2) == Int.MinValue)
    assert(g.edgeCount == 2)
    assert(g.nodeArray.toSeq == Seq(0, 1, 3, 4) && g.nodeCount == 4)
    assert(g.reverseReachOf(Array(2), Int.MinValue).toSeq == Seq(2) && g.reachOf(1).toSeq == Seq(1))
    g.expire(3, 4, now = 3)
    g.expire(0, 1, now = 4)
    assert(g.edgeCount == 0 && g.nodeCount == 0 && g.nodeArray.isEmpty)
    assert(g.spreadOf(Seq(0)) == 1)
  }

  test("a new edge marks its tail a source; raising its expiry or a self-loop changes nothing") {
    val g = new Digraph(8)
    assert(g.sourceArray.isEmpty)
    assert(g.addEdge(3, 5, expiry = 4))
    assert(g.sourceArray.toSeq == Seq(3))
    assert(!g.addEdge(3, 5, expiry = 9))
    assert(g.sourceArray.toSeq == Seq(3))
    assert(!g.addEdge(6, 6, expiry = 9))
    assert(g.sourceArray.toSeq == Seq(3) && g.nodeArray.toSeq == Seq(3, 5))
    g.addEdge(5, 1, expiry = 2)
    assert(g.sourceArray.toSeq == Seq(3, 5))
  }

  test("a node whose last out-edge expires stops being a source but stays present as a head") {
    val g = new Digraph(8)
    g.addEdge(2, 4, expiry = 3)
    g.addEdge(2, 6, expiry = 5)
    g.addEdge(1, 2, expiry = 9)
    g.expire(2, 4, now = 3)
    assert(g.sourceArray.toSeq == Seq(1, 2))
    g.expire(2, 6, now = 5)
    assert(g.sourceArray.toSeq == Seq(1))
    assert(g.nodeArray.toSeq == Seq(1, 2))
    assert(g.prevSink(7) == 2)
  }

  test("the sink iteration visits present non-sources in descending order and ends with -1") {
    val g = TestData.digraphOf(12, Seq((0, 3), (3, 7), (5, 7), (5, 9), (11, 2)))
    val sinks = Iterator.iterate(g.prevSink(11))(v => g.prevSink(v - 1)).takeWhile(_ >= 0).toSeq
    assert(sinks == Seq(9, 7, 2))
    assert(g.prevSink(1) == -1 && g.prevSink(-1) == -1)
    assert(new Digraph(0).prevSink(-1) == -1)
  }

  test("singletonSpread, spreadOutside and cover agree with reachOf on random graphs") {
    for (seed <- 0L until 40L) {
      val rng   = new Random(seed)
      val n     = 2 + rng.nextInt(40)
      val g     = TestData.digraphOf(n, TestData.randomEdges(n, rng.nextInt(2 * n), seed))
      val words = new Array[Long]((n + 63) >>> 6)
      var held  = Set.empty[Int]
      for (v <- 0 until n) assert(g.singletonSpread(v) == g.reachOf(v).length, s"seed=$seed v=$v")
      for (_ <- 0 until 3) {
        val outside = (0 until n).filterNot(held)
        if (outside.nonEmpty) {
          // `words` stays closed under reach: it only ever gains whole reach sets.
          outside.foreach(v => assert(g.spreadOutside(v, words) == (g.reachOf(v).toSet -- held).size, s"seed=$seed v=$v"))
          val v    = outside(rng.nextInt(outside.length))
          val grew = (g.reachOf(v).toSet -- held).size
          assert(g.cover(v, words) == grew, s"seed=$seed v=$v")
          held ++= g.reachOf(v)
          assert((0 until n).filter(Digraph.has(words, _)).toSet == held, s"seed=$seed")
        }
      }
    }
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
      -1 -> (_.reachOf(-1)),
      7  -> (_.reachOf(7)),
      5  -> (_.spreadOf(Seq(5), 0)),
      4  -> (_.reverseReachOf(Array(4), Int.MinValue)),
      9  -> (_.reverseReachOf(Array(0, 9), Int.MinValue)),
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
            assert(g.spreadOf(Seq(u), from) == naive(Seq(u), from, reverse = false).size, ctx)
          case 6 =>
            val seeds = Seq.fill(1 + rng.nextInt(3))(rng.nextInt(n))
            // A multi-seed reach set is the union of each seed's.
            assert(seeds.flatMap(g.reachOf(_, from)).toSet == naive(seeds, from, reverse = false), ctx)
          case 7 =>
            assert(g.reverseReachOf(Array(u), from).toSet == naive(Seq(u), from, reverse = true), ctx)
          case _ =>
            // One multi-target search equals the union of single searches.
            val targets = Seq.fill(1 + rng.nextInt(4))(rng.nextInt(n))
            val r       = g.reverseReachOf(targets.toArray, from)
            assert(r.distinct.length == r.length, ctx)
            assert(r.toSet == targets.map(t => naive(Seq(t), from, reverse = true)).reduce(_ | _), ctx)
            assert(r.toSet == targets.map(t => g.reverseReachOf(Array(t), from).toSet).reduce(_ | _), ctx)
            // Nodes `plus` follow the reverse reach, each node still once.
            val plus = Array.fill(rng.nextInt(4))(rng.nextInt(n))
            val rp   = g.reverseReachOf(targets.toArray, from, plus)
            assert(rp.take(r.length).toSeq == r.toSeq && rp.distinct.length == rp.length, ctx)
            assert(rp.toSet == r.toSet ++ plus, ctx)
            mostReached = math.max(mostReached, r.length)
        }
        assert(g.edgeCount == model.size, ctx)
      }
    }
    assert(mostReached > 64, s"the largest search reached only $mostReached nodes")
  }
}
