package repro

import java.nio.file.{Files, Path, Paths}
import scala.jdk.CollectionConverters._
import org.scalatest.funsuite.AnyFunSuite

/** The detectors, the divergence comparator and the result analysis run
  * on the driver-side index only: Spark stays in `repro.data`,
  * `repro.exp` and the jobs.
  */
class LayeringSpec extends AnyFunSuite {

  private val sparkFree = Seq("core", "divergence", "shapley")

  /** The `.scala` files under `src/main/scala/repro/<pkg>`, read from the
    * project directory the tests run in.
    */
  private def sources(pkg: String): Seq[Path] = {
    val dir = Paths.get(sys.props("user.dir"), "src", "main", "scala", "repro", pkg)
    assert(Files.isDirectory(dir), s"$dir is not a directory")
    val walk = Files.walk(dir)
    try walk.iterator.asScala.filter(_.toString.endsWith(".scala")).toVector
    finally walk.close()
  }

  test("core, divergence and shapley never mention org.apache.spark") {
    for (pkg <- sparkFree) {
      val files = sources(pkg)
      assert(files.nonEmpty, s"no sources found for repro.$pkg")
      val offenders = files.filter(f => new String(Files.readAllBytes(f), "UTF-8").contains("org.apache.spark"))
      assert(offenders.isEmpty, s"repro.$pkg must not use Spark: ${offenders.mkString(", ")}")
    }
  }
}
