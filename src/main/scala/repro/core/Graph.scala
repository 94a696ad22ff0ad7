package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** One undirected edge of the road network.
  *
  * @param id     dense edge id in `[0, numEdges)`
  * @param u      smaller endpoint vertex id
  * @param v      larger endpoint vertex id
  */
final case class EdgeRec(id: Int, u: Int, v: Int) {
  require(u != v, s"self loop at $u")
  /** The endpoint of this edge that is not `x`. */
  def other(x: Int): Int = if (x == u) v else u
}

/** A weight change event: edge `edgeId` now weighs `newWeight` (was
  * `newWeight - delta` when the event was made). The DTLP index does not read
  * `delta`: it takes each Δ against its own current weight.
  */
final case class WeightUpdate(edgeId: Int, newWeight: Double, delta: Double)

/** Minimal read interface shared by [[WeightedGraph]] and light-weight views
  * (e.g. the query-time augmented skeleton graph): adjacency iteration plus
  * a current weight per edge id. Dijkstra and Yen run against this.
  */
trait GraphOps extends Serializable {
  def numVertices: Int
  def foreachNeighbor(v: Int)(f: (Int, Int) => Unit): Unit
  def edgeWeight(e: Int): Double
}

/** Compact undirected weighted graph with mutable per-edge weights.
  *
  * The structure (vertices, edges, vfrag counts) is immutable; only
  * `weights` evolves, mirroring Definition 1 of the paper (dynamic graph =
  * fixed topology + time-varying non-negative weights). Adjacency is CSR:
  * `adjOff(v) until adjOff(v+1)` indexes into `adjVertex`/`adjEdge`.
  *
  * @param numVertices     vertex ids are `[0, numVertices)`
  * @param edges           edge table, indexed by edge id
  * @param initialWeights  `w⁰` per edge — fixed forever; defines vfrag counts
  */
final class WeightedGraph(
    val numVertices: Int,
    val edges: Array[EdgeRec],
    val initialWeights: Array[Double]) extends GraphOps {
  require(edges.length == initialWeights.length)
  require(initialWeights.forall(_ > 0), "initial weights must be positive")

  val numEdges: Int = edges.length

  /** Current weight per edge id; updated in place via [[applyUpdates]]. */
  val weights: Array[Double] = initialWeights.clone()

  /** Virtual-fragment count per edge: `round(w⁰)`, at least 1 (Section 3.4). */
  val vfrags: Array[Int] = initialWeights.map(w => math.max(1, math.round(w).toInt))

  // CSR adjacency.
  val adjOff: Array[Int] = {
    val deg = new Array[Int](numVertices + 1)
    edges.foreach { e => deg(e.u + 1) += 1; deg(e.v + 1) += 1 }
    for (i <- 1 to numVertices) deg(i) += deg(i - 1)
    deg
  }
  val adjVertex: Array[Int] = new Array[Int](2 * numEdges)
  val adjEdge: Array[Int] = new Array[Int](2 * numEdges)
  locally {
    val cursor = adjOff.clone()
    edges.foreach { e =>
      adjVertex(cursor(e.u)) = e.v; adjEdge(cursor(e.u)) = e.id; cursor(e.u) += 1
      adjVertex(cursor(e.v)) = e.u; adjEdge(cursor(e.v)) = e.id; cursor(e.v) += 1
    }
  }

  def degree(v: Int): Int = adjOff(v + 1) - adjOff(v)

  /** Iterate neighbors of `v` as (neighbor, edgeId) without allocation. */
  @inline def foreachNeighbor(v: Int)(f: (Int, Int) => Unit): Unit = {
    var i = adjOff(v)
    val end = adjOff(v + 1)
    while (i < end) { f(adjVertex(i), adjEdge(i)); i += 1 }
  }

  override def edgeWeight(e: Int): Double = weights(e)

  /** Current unit weight of edge `e`: `w_e / w⁰_e` spread over its vfrags. */
  @inline def unitWeight(e: Int): Double = weights(e) / vfrags(e)

  /** Apply a batch of weight updates in place. The whole batch is rejected,
    * before any weight is written, if an event names an unknown edge or a
    * non-finite or non-positive weight.
    */
  def applyUpdates(updates: Iterable[WeightUpdate]): Unit = {
    updates.foreach { u =>
      require(u.edgeId >= 0 && u.edgeId < numEdges, s"unknown edge id ${u.edgeId}")
      require(u.newWeight > 0 && !u.newWeight.isInfinite, s"edge ${u.edgeId}: weight ${u.newWeight} is not finite and positive")
    }
    updates.foreach(u => weights(u.edgeId) = u.newWeight)
  }

  /** Distance of a walk given as a vertex sequence; NaN-free, fails on non-edges. */
  def walkDistance(vertices: IndexedSeq[Int]): Double = {
    var d = 0.0
    var i = 1
    while (i < vertices.length) {
      d += weights(edgeBetween(vertices(i - 1), vertices(i)).getOrElse(
        sys.error(s"no edge ${vertices(i - 1)}-${vertices(i)}")))
      i += 1
    }
    d
  }

  /** Edge id between two vertices, if present (first match; parallel edges unsupported). */
  def edgeBetween(a: Int, b: Int): Option[Int] = {
    var res = -1
    foreachNeighbor(a) { (n, e) => if (res < 0 && n == b) res = e }
    if (res >= 0) Some(res) else None
  }

  /** Edges as a DataFrame `(edge_id, u, v, w0, w)` for Spark/DuckDB-side checks. */
  def edgesDf(spark: SparkSession): DataFrame = {
    import spark.implicits._
    edges.indices
      .map(i => (edges(i).id, edges(i).u, edges(i).v, initialWeights(i), weights(i)))
      .toDF("edge_id", "u", "v", "w0", "w")
  }

  /** Deep copy sharing structure but with independent current weights. */
  def snapshot(): WeightedGraph = {
    val g = new WeightedGraph(numVertices, edges, initialWeights)
    Array.copy(weights, 0, g.weights, 0, numEdges)
    g
  }
}

object WeightedGraph {
  /** Build from undirected (u, v, w⁰) triples; assigns dense edge ids, canonicalizes
    * endpoints so `u < v`, and rejects duplicate/self edges.
    */
  def fromEdges(numVertices: Int, raw: Seq[(Int, Int, Double)]): WeightedGraph = {
    val seen = scala.collection.mutable.HashSet.empty[(Int, Int)]
    val recs = Array.newBuilder[EdgeRec]
    val ws = Array.newBuilder[Double]
    var id = 0
    raw.foreach { case (a, b, w) =>
      require(a != b, s"self loop at $a")
      require(0 <= a && a < numVertices && 0 <= b && b < numVertices, s"vertex out of range: ($a,$b)")
      val (u, v) = if (a < b) (a, b) else (b, a)
      require(seen.add((u, v)), s"duplicate edge ($u,$v)")
      recs += EdgeRec(id, u, v); ws += w; id += 1
    }
    new WeightedGraph(numVertices, recs.result(), ws.result())
  }
}
