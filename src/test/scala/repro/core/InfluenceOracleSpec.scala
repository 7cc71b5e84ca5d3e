package repro.core

import repro.{Oracle, SparkSpec, TestData}

/** The influence-spread oracle against the DuckDB recursive-CTE ground truth:
  * a wrong BFS is a wrong result here, not just a crash.
  */
class InfluenceOracleSpec extends SparkSpec {
  import org.apache.spark.sql.functions._

  private def reachSql =
    """WITH RECURSIVE r(node) AS (
      |  SELECT node FROM seeds
      |  UNION
      |  SELECT e.dst FROM edges e, r WHERE e.src = r.node
      |)
      |SELECT node FROM r""".stripMargin

  private def checkAgainstDuck(edges: Seq[(Int, Int)], seeds: Seq[Int], universe: Int): Unit = {
    val g       = TestData.digraphOf(universe, edges)
    val local   = seeds.flatMap(g.reachOf(_)).distinct.map(_.toString)
    import spark.implicits._
    val sparkDf = local.toDF("node")
    Oracle.assertEquivalent(
      sparkDf,
      reachSql,
      "edges" -> TestData.edgesDf(spark, edges),
      "seeds" -> TestData.seedsDf(spark, seeds),
    )
  }

  test("local BFS reach matches DuckDB recursive CTE on a chain") {
    checkAgainstDuck(Seq((0, 1), (1, 2), (2, 3)), Seq(0), 6)
  }

  test("local BFS reach matches DuckDB recursive CTE on a cycle") {
    checkAgainstDuck(Seq((0, 1), (1, 2), (2, 0)), Seq(1), 4)
  }

  test("local BFS reach matches DuckDB recursive CTE on a DAG with multiple seeds") {
    checkAgainstDuck(Seq((0, 2), (1, 2), (2, 3), (3, 4), (5, 6)), Seq(0, 5), 8)
  }

  test("local BFS reach matches DuckDB recursive CTE on random graphs") {
    for (seed <- 0 until 8) {
      val edges = TestData.randomEdges(20, 45, seed.toLong)
      checkAgainstDuck(edges, Seq(seed % 20, (seed * 7) % 20), 20)
    }
  }
}
